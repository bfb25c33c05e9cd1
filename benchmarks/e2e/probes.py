"""Per-layer kernel probes of the traced run.

Each probe calls one layer's public function on a small fixed input and
times it, so that every layer has a wall-clock number in every traced
run, whether or not the workload's own ops reach that layer.  The ops'
own time is split between layers by the spans (``tracing.py``); these
numbers say what one call into a layer costs.

Fixed inputs: Montage-4 (240 tasks, generator seed 5) for everything
that needs a compiled problem, a 1-task pipeline for the WLog path, and
a 32-state search-shaped batch (a parent plus single-task edits) for the
evaluation kernels.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time

from workloads import ENGINE, usable_cpus

PROBE_SEED = 5
BATCH = 32

_clock = time.perf_counter


def _median_ms(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = _clock()
        fn()
        times.append(_clock() - t0)
    return statistics.median(times) * 1e3


def _timed_ms(fn):
    t0 = _clock()
    value = fn()
    return (_clock() - t0) * 1e3, value


def probe_workflow_wlog_analysis(catalog) -> dict:
    from repro.analysis import analyze_semantics
    from repro.common.errors import WLogAnalysisError
    from repro.distributions.histogram import Histogram
    from repro.engine.deco import Deco
    from repro.engine.plan import deadline_presets
    from repro.wlog.analysis import check_program
    from repro.wlog.imports import ImportRegistry
    from repro.wlog.library import scheduling_program
    from repro.wlog.probir import translate
    from repro.wlog.program import WLogProgram
    from repro.workflow import generators

    out = {
        "workflow.generate_ms": _median_ms(
            lambda: generators.montage(degrees=4.0, seed=PROBE_SEED)
        )
    }
    pipeline = generators.pipeline(1, seed=PROBE_SEED)
    source = scheduling_program(
        cloud="amazonec2",
        workflow="pipeline",
        percentile=96.0,
        deadline_seconds=deadline_presets(pipeline, catalog).medium,
    )

    def registry_for(name, workflow):
        registry = ImportRegistry()
        registry.register_cloud("amazonec2", catalog)
        registry.register_workflow(name, workflow)
        return registry

    out["wlog.source_bytes"] = float(len(source.encode()))
    out["wlog.parse_ms"] = _median_ms(lambda: WLogProgram.from_source(source))
    program = WLogProgram.from_source(source)
    registry = registry_for("pipeline", pipeline)
    out["wlog.check_ms"] = _median_ms(lambda: check_program(program, registry=registry))
    out["analysis.semantic_ms"] = _median_ms(
        lambda: analyze_semantics(program, registry=registry)
    )
    # A fresh registry, as service.worker.solve_job builds for every WLog job:
    # translation materialises one histogram per (task, instance type).
    out["wlog.translate_ms"], ir = _timed_ms(
        lambda: translate(program, registry_for("pipeline", pipeline))
    )
    out["wlog.ir_facts"] = float(len(ir.materialized.rules) + len(ir.prob_facts))
    bandwidth = catalog.cheapest().network
    out["distributions.histogram_ms"], _ = _timed_ms(
        lambda: Histogram.from_distribution(bandwidth)
    )

    # A 60 s deadline on Montage-1 is below the critical path on the fastest
    # type (examples/infeasible_deadline.wlog): E401 must reject it unsolved.
    montage = generators.montage(degrees=1.0, seed=PROBE_SEED)
    infeasible = scheduling_program(
        cloud="amazonec2", workflow="montage", percentile=95.0, deadline_seconds=60.0
    )
    reject_registry = registry_for("montage", montage)

    def rejected():
        try:
            Deco(catalog, **ENGINE).solve_program(infeasible, reject_registry)
        except WLogAnalysisError as exc:
            return [d.check for d in exc.diagnostics]
        return []

    out["analysis.reject_ms"], checks = _timed_ms(rejected)
    if "E401" not in checks:
        raise AssertionError(f"infeasible deadline not rejected with E401: {checks}")
    return out


def _montage4(catalog):
    """The probes' workflow and a function that compiles it."""
    from repro.solver.backends import CompiledProblem
    from repro.workflow import generators
    from repro.workflow.runtime_model import RuntimeModel

    workflow = generators.montage(degrees=4.0, seed=PROBE_SEED)
    runtime = RuntimeModel(catalog)

    def compile_problem():
        return CompiledProblem.compile(
            workflow,
            catalog,
            deadline=1.0e9,
            percentile=96.0,
            num_samples=ENGINE["num_samples"],
            seed=ENGINE["seed"],
            runtime_model=runtime,
        )

    return workflow, runtime, compile_problem


def probe_engine_solver_cloud(catalog) -> dict:
    from repro.analysis.dominance import compute_op_mask
    from repro.baselines.autoscaling import autoscaling_plan
    from repro.cloud import CloudSimulator
    from repro.common.rng import RngService
    from repro.engine.plan import deadline_presets
    from repro.solver.analytic_backend import AnalyticBackend
    from repro.solver.backends import VectorizedBackend
    from repro.solver.cache import EvalContext
    from repro.solver.state import PlanState

    out: dict = {}
    workflow, runtime, compile_problem = _montage4(catalog)
    out["engine.compile_ms"] = _median_ms(compile_problem, repeats=3)
    problem = compile_problem()
    out["engine.tensor_mb"] = (problem.tensor.nbytes + problem.tensor_taskmajor.nbytes) / 1e6
    # The 8-rung deadline ladder Deco seeds every search with.
    deadline = deadline_presets(workflow, catalog, runtime).medium
    ladder = (1.0, 0.92, 0.85, 0.78, 0.7, 0.6, 0.5, 0.4)
    out["engine.warmstart_ms"] = _median_ms(
        lambda: [
            problem.state_from_assignment(
                autoscaling_plan(workflow, catalog, deadline * factor, runtime)
            )
            for factor in ladder
        ],
        repeats=3,
    )
    out["analysis.opmask_ms"] = _median_ms(lambda: compute_op_mask(problem), repeats=3)

    # Kernel timings on one search-shaped batch: a parent and BATCH
    # single-task edits of it, the shape every beam expansion evaluates.
    parent = PlanState.uniform(problem.num_tasks, 1)
    children = []
    stride = max(1, problem.num_tasks // BATCH)
    for j, i in enumerate(range(0, problem.num_tasks, stride)):
        child = parent.promote(i, problem.num_types) if j % 2 else parent.demote(i)
        if child is not None:
            children.append(child)
        if len(children) == BATCH:
            break
    per_state_us = 1e3 / len(children)
    backend = VectorizedBackend(eval_context=EvalContext())
    backend.ensure_frontier(problem, parent)
    out["solver.mc_us_per_state"] = (
        _median_ms(lambda: backend.makespan_samples(problem, children)) * per_state_us
    )
    out["solver.prefix_us_per_state"] = (
        _median_ms(lambda: backend.screen_probabilities(problem, children, 32)) * per_state_us
    )
    analytic = AnalyticBackend(pool=backend.pool)
    first_ms, _ = _timed_ms(lambda: analytic.makespan_moments(problem, children))
    steady_ms = _median_ms(lambda: analytic.makespan_moments(problem, children))
    out["solver.analytic_us_per_state"] = steady_ms * per_state_us
    # The first call also calibrates the quantile grids of the sample tensor.
    out["solver.calibrate_ms"] = max(first_ms - steady_ms, 0.0)

    simulator = CloudSimulator(catalog, RngService(PROBE_SEED))
    assignment = dict.fromkeys(workflow.task_ids, catalog.cheapest().name)
    runs = 5
    total_ms, _ = _timed_ms(
        lambda: [simulator.execute(workflow, assignment, run_id=r) for r in range(runs)]
    )
    out["cloud.execute_ms_per_run"] = total_ms / runs
    return out


def probe_parallel(catalog) -> dict:
    """Pool start, job round trip and arena publish/attach with 2 workers."""
    from repro.engine.compiler import export_problem_arrays
    from repro.parallel.arena import TensorArena, attach_segment, content_key
    from repro.parallel.executor import ShardPool
    from repro.service.worker import ping_job

    workers = min(2, usable_cpus())
    out: dict = {}
    pool = ShardPool(workers)
    try:
        out["parallel.pool_start_ms"], _ = _timed_ms(
            lambda: pool.gather([pool.submit(s, ping_job, None) for s in range(workers)])
        )
        trips = []
        for i in range(200):
            t0 = _clock()
            pool.gather([pool.submit(i % workers, ping_job, None)])
            trips.append(_clock() - t0)
        out["parallel.roundtrip_us"] = statistics.median(trips) * 1e6
    finally:
        pool.close()
    arrays, meta = export_problem_arrays(_montage4(catalog)[2]())
    key = content_key(arrays)
    arena = TensorArena()
    try:
        out["parallel.arena_publish_ms"], _ = _timed_ms(lambda: arena.publish(key, arrays, meta))

        def attach():
            attach_segment(key).close()

        out["parallel.arena_attach_ms"] = _median_ms(attach)
    finally:
        arena.close()
    return out


def probe_service(out_dir: str) -> dict:
    """Service start, an accepted submit, a plan-cache hit, a journal append."""
    from repro.service.journal import JobJournal
    from repro.service.runtime import DecoService, ServiceConfig

    out: dict = {}
    tmpdir = tempfile.mkdtemp(prefix="probe-journal-", dir=out_dir)
    service = None
    try:
        config = ServiceConfig(
            journal_path=os.path.join(tmpdir, "jobs.jsonl"),
            workers=min(2, usable_cpus()),
            engine=dict(ENGINE),
        )

        def start():
            svc = DecoService(config)
            svc.start()
            return svc

        out["service.start_ms"], service = _timed_ms(start)
        payload = {
            "workflow": {"app": "montage", "degrees": 1.0, "seed": PROBE_SEED},
            "deadline": "medium",
            "percentile": 96.0,
        }
        out["service.submit_ms"], job = _timed_ms(lambda: service.submit(payload))
        deadline = time.monotonic() + 60.0
        while not service.queue.get(job.job_id).terminal:
            if time.monotonic() > deadline:
                raise TimeoutError("service probe job did not finish in 60 s")
            time.sleep(0.001)
        out["service.cache_hit_ms"] = _median_ms(lambda: service.submit(payload))
        # One write + flush + fsync, on a journal of its own in the same directory.
        journal = JobJournal(os.path.join(tmpdir, "append-probe.jsonl"))
        try:
            out["service.journal_append_ms"] = _median_ms(
                lambda: journal.append("started", job_id=job.job_id, ts=time.time())
            )
        finally:
            journal.close()
    finally:
        if service is not None:
            service.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    return out


def run_probes(catalog, out_dir: str, speed) -> dict:
    """All probes; times are divided by the host slow-down around each group."""
    metrics: dict = {}
    for probe, arg in (
        (probe_workflow_wlog_analysis, catalog),
        (probe_engine_solver_cloud, catalog),
        (probe_parallel, catalog),
        (probe_service, out_dir),
    ):
        speed.tick()
        values = probe(arg)
        speed.tick()
        slowdown = speed.segments()[-1][2]
        for name, value in values.items():
            timed = name.endswith(("_ms", "_us", "_us_per_state", "_ms_per_run"))
            metrics[name] = value / slowdown if timed else value
    return metrics
