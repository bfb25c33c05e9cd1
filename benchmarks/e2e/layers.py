"""The per-layer table of a traced run.

Three kinds of number, all under the name of the ``src/repro`` package
they describe:

* ``*_share`` of a span name: that layer's self time over the ops, as a
  share of the summed op latency.  The shares of one workload, with
  ``trace.unattributed_share``, add up to 1.  A layer the workload's ops
  never enter reads 0.
* counters read after the ops from ``Deco.last_result``,
  ``Deco.cache_stats()``, ``DecoService.stats()`` and the job records,
  as means per op or as ratios of useful outcomes to attempts.
* kernel probes (``probes.py``): one timed call into each layer on a
  fixed input, the same in every workload's traced run.

``PER_LAYER`` is the list ``BENCHMARK.json`` repeats; ``run.py
--selfcheck`` fails when the two differ.
"""

from __future__ import annotations

import statistics

#: span name(s) -> share metric
SHARES = {
    "wlog.parse_share": ("wlog.parse",),
    "wlog.check_share": ("wlog.check",),
    "wlog.translate_share": ("wlog.translate",),
    "analysis.semantic_share": ("analysis.semantic",),
    "analysis.opmask_share": ("analysis.opmask",),
    "engine.compile_share": ("engine.compile",),
    "engine.warmstart_share": ("engine.warmstart",),
    "engine.self_share": ("engine.schedule", "engine.solve_program"),
    "solver.search_self_share": ("solver.search",),
    "solver.tier0_share": ("solver.tier0",),
    "solver.tier1_share": ("solver.tier1",),
    "solver.tier2_share": ("solver.tier2",),
    "parallel.broadcast_share": ("parallel.broadcast",),
    "parallel.rounds_share": ("parallel.rounds",),
    "service.submit_share": ("service.submit",),
    "service.queue_wait_share": ("service.queue_wait",),
    "service.worker_solve_share": ("service.worker_solve",),
    "service.other_share": ("service.job",),
}

#: The metrics that split the op latency; they add up to 1.
SHARE_METRICS = (*SHARES, "trace.unattributed_share")

#: (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("workflow.generate_ms", "ms", "lower"),
    ("workflow.tasks", "count", "lower"),
    ("wlog.parse_ms", "ms", "lower"),
    ("wlog.check_ms", "ms", "lower"),
    ("wlog.translate_ms", "ms", "lower"),
    ("wlog.ir_facts", "count", "lower"),
    ("wlog.source_bytes", "bytes", "lower"),
    ("wlog.parse_share", "share", "lower"),
    ("wlog.check_share", "share", "lower"),
    ("wlog.translate_share", "share", "lower"),
    ("distributions.histogram_ms", "ms", "lower"),
    ("analysis.semantic_ms", "ms", "lower"),
    ("analysis.reject_ms", "ms", "lower"),
    ("analysis.opmask_ms", "ms", "lower"),
    ("analysis.semantic_share", "share", "lower"),
    ("analysis.opmask_share", "share", "lower"),
    ("analysis.pruned_share", "share", "higher"),
    ("engine.compile_ms", "ms", "lower"),
    ("engine.tensor_mb", "MB", "lower"),
    ("engine.warmstart_ms", "ms", "lower"),
    ("engine.compile_share", "share", "lower"),
    ("engine.warmstart_share", "share", "lower"),
    ("engine.self_share", "share", "lower"),
    ("engine.warm_cold_mismatch_share", "share", "lower"),
    ("solver.search_self_share", "share", "lower"),
    ("solver.tier0_share", "share", "lower"),
    ("solver.tier1_share", "share", "lower"),
    ("solver.tier2_share", "share", "lower"),
    ("solver.evaluations", "count", "lower"),
    ("solver.expansions", "count", "lower"),
    ("solver.evals_per_s", "1/s", "higher"),
    ("solver.tier0_settled_share", "share", "higher"),
    ("solver.tier1_screened_share", "share", "higher"),
    ("solver.tier2_evals_share", "share", "lower"),
    ("solver.cache_hit_share", "share", "higher"),
    ("solver.rows_recomputed_share", "share", "lower"),
    ("solver.levels_skipped_share", "share", "higher"),
    ("solver.mc_us_per_state", "us", "lower"),
    ("solver.prefix_us_per_state", "us", "lower"),
    ("solver.analytic_us_per_state", "us", "lower"),
    ("solver.calibrate_ms", "ms", "lower"),
    ("parallel.pool_start_ms", "ms", "lower"),
    ("parallel.roundtrip_us", "us", "lower"),
    ("parallel.arena_publish_ms", "ms", "lower"),
    ("parallel.arena_attach_ms", "ms", "lower"),
    ("parallel.broadcast_share", "share", "lower"),
    ("parallel.rounds_share", "share", "lower"),
    ("parallel.broadcast_bytes", "bytes", "lower"),
    ("parallel.broadcast_skipped_share", "share", "higher"),
    ("parallel.arena_hit_share", "share", "higher"),
    ("parallel.shard_imbalance", "ratio", "lower"),
    ("parallel.speculation_hit_share", "share", "higher"),
    ("parallel.fallbacks", "count", "lower"),
    ("parallel.speedup", "ratio", "higher"),
    ("parallel.cpu_ratio", "ratio", "lower"),
    ("parallel.plan_mismatch_share", "share", "lower"),
    ("service.start_ms", "ms", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.cache_hit_ms", "ms", "lower"),
    ("service.journal_append_ms", "ms", "lower"),
    ("service.submit_share", "share", "lower"),
    ("service.queue_wait_share", "share", "lower"),
    ("service.worker_solve_share", "share", "higher"),
    ("service.other_share", "share", "lower"),
    ("service.cache_hit_share", "share", "higher"),
    ("service.problem_store_hit_share", "share", "higher"),
    ("service.journal_bytes_per_job", "bytes", "lower"),
    ("service.degraded", "count", "lower"),
    ("service.dead_lettered", "count", "lower"),
    ("service.respawns", "count", "lower"),
    ("cloud.execute_ms_per_run", "ms", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("trace.op_p50_ms", "ms", "lower"),
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def references(workload, records) -> dict:
    """Reference solves a traced sweep is compared with.

    Every sweep op is solved again on a fresh (cold) serial engine; the
    sharded sweep also replays its whole op list on one warm serial
    engine, its *twin*, which is timed the same way.
    """
    from hostspeed import HostSpeed
    from timing import quiet_timing, timed_pass
    from workloads import SweepLargeWarm

    if not isinstance(workload, SweepLargeWarm):
        return {}
    ops = [r.op for r in records]
    out: dict = {}
    cold: dict = {}
    mismatched = 0
    for op, record in zip(ops, records):
        cell = (op.deadline, op.percentile)
        if cell not in cold:
            plan = workload._engine().schedule(
                workload.workflows[op.workflow], op.deadline, op.percentile
            )
            cold[cell] = plan.decision_dict()
        if record.plan is None or record.plan.decision_dict() != cold[cell]:
            mismatched += 1
    out["warm_cold_mismatch_share"] = mismatched / len(ops)

    if workload.workers and workload.workers > 1:
        twin = SweepLargeWarm()
        twin.workflows = workload.workflows
        twin.start()
        speed = HostSpeed()
        try:
            twin_records, segments, cpu = timed_pass(twin, ops, speed)
        finally:
            twin.stop()
        out["twin"], _ = quiet_timing(twin_records, segments, cpu, speed)
        out["twin_mismatch_share"] = sum(
            a.plan is None
            or b.plan is None
            or a.plan.decision_dict() != b.plan.decision_dict()
            for a, b in zip(records, twin_records)
        ) / len(ops)
    return out


def per_layer_metrics(workload, records, tracer, stats, quiet, measured, speed) -> dict:
    from probes import run_probes

    n = len(records)
    total_latency = sum(r.latency_s for r in records)
    values: dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}

    # Shares of the op latency, from the spans.
    self_s, root_s = tracer.self_times()
    for metric, names in SHARES.items():
        values[metric] = _ratio(sum(self_s.get(name, 0.0) for name in names), total_latency)
    values["trace.unattributed_share"] = _ratio(total_latency - root_s, total_latency)
    values["trace.spans_per_op"] = len(tracer.spans) / n
    values["trace.overhead_share"] = _ratio(
        len(tracer.spans) * tracer.span_cost_s(), total_latency
    )
    # Like every time here, at quiet-host speed: host.slowdown times it was measured.
    values["trace.op_p50_ms"] = quiet["plan_s.p50"] * 1e3
    values["host.slowdown"] = measured["host_slowdown"]

    # Search counters, summed over the ops that ran a search.
    def total(key: str) -> int:
        return sum(r.counters.get(key, 0) for r in records)

    solved = sum(1 for r in records if r.counters)
    evaluations = total("evaluations")
    values["workflow.tasks"] = statistics.fmean(
        len(workload.workflows[r.op.workflow]) for r in records
    )
    values["solver.evaluations"] = _ratio(evaluations, solved)
    values["solver.expansions"] = _ratio(total("expansions"), solved)
    values["solver.evals_per_s"] = _ratio(evaluations, total_latency)
    values["solver.tier0_settled_share"] = _ratio(
        total("analytic_screened_out") + total("analytic_accepted"), evaluations
    )
    values["solver.tier1_screened_share"] = _ratio(total("screened_out"), evaluations)
    values["solver.tier2_evals_share"] = _ratio(total("exact_evals"), evaluations)
    values["solver.cache_hit_share"] = _ratio(
        total("cache_hits"), total("cache_hits") + total("cache_misses")
    )
    values["solver.rows_recomputed_share"] = _ratio(total("rows_recomputed"), total("rows_total"))
    values["solver.levels_skipped_share"] = _ratio(total("levels_skipped"), total("levels_total"))
    values["analysis.pruned_share"] = _ratio(total("pruned_candidates"), evaluations)
    values["parallel.speculation_hit_share"] = _ratio(total("speculation_hits"), total("speculated"))

    refs = references(workload, records)
    values["engine.warm_cold_mismatch_share"] = refs.get("warm_cold_mismatch_share", 0.0)

    distributed = stats.get("distributed")
    if distributed:
        values["parallel.broadcast_bytes"] = float(distributed["broadcast_bytes"])
        values["parallel.broadcast_skipped_share"] = _ratio(
            distributed["broadcast_skipped"],
            distributed["broadcasts"] + distributed["broadcast_skipped"],
        )
        values["parallel.arena_hit_share"] = _ratio(
            distributed.get("arena_hits", 0),
            distributed.get("arena_hits", 0) + distributed.get("arena_publishes", 0),
        )
        values["parallel.shard_imbalance"] = float(distributed.get("shard_imbalance", 0.0))
        values["parallel.fallbacks"] = float(
            sum(1 for r in records if r.counters.get("workers", 0) < distributed["workers"])
        )
    if "twin" in refs:
        twin = refs["twin"]
        values["parallel.speedup"] = _ratio(twin["plan_s.p50"], quiet["plan_s.p50"])
        values["parallel.cpu_ratio"] = _ratio(quiet["cpu_s_per_plan"], twin["cpu_s_per_plan"])
        values["parallel.plan_mismatch_share"] = refs["twin_mismatch_share"]

    if "journal_bytes" in stats:  # service-mix
        jobs = stats["jobs"]
        hits = sum(1 for r in records if r.job.get("cache_hit"))
        store_hits = sum(1 for r in records if r.job.get("store_event") == "hit")
        values["service.cache_hit_share"] = hits / n
        values["service.problem_store_hit_share"] = _ratio(store_hits, n - hits)
        values["service.journal_bytes_per_job"] = _ratio(stats["journal_bytes"], sum(jobs.values()))
        values["service.degraded"] = float(jobs.get("degraded", 0))
        values["service.dead_lettered"] = float(jobs.get("dead_lettered", 0))
        values["service.respawns"] = float(stats["worker_respawns"])

    values.update(run_probes(workload.catalog, workload.out_dir, speed))

    units = {name: unit for name, unit, _better in PER_LAYER}
    unknown = set(values) - set(units)
    if unknown:
        raise AssertionError(f"metrics not declared in PER_LAYER: {sorted(unknown)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}
