"""The workload process: set up, time the op list, check the plans, trace.

``run.py`` starts this file once per workload in a session of its own and
reads one JSON document from its last line of output.  Nothing here
survives the process: engines and services are closed in ``finally`` and
every ``multiprocessing`` child is joined (killed after 5 s) before exit.
"""

from __future__ import annotations

import time

_T_ENTER = time.time()  # before the heavy imports, which are part of set-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from proctree import peak_rss_mb, session_stats  # noqa: E402
from timing import quiet_timing, timed_pass  # noqa: E402

#: Times the whole set-up is done in a run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
_clock = time.perf_counter


def join_children(timeout_s: float = 5.0) -> int:
    """Join every multiprocessing child; kill what is left.  Returns kills.

    ``is_alive()`` alone is not enough: when the executor's own thread has
    just reaped a worker, ``Process`` answers "alive" until that thread has
    stored the exit code, so ``/proc`` has the last word.
    """
    deadline = time.monotonic() + timeout_s
    killed = 0
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive() and proc.pid in session_stats(os.getsid(0)):
            print(f"{proc.name} (pid {proc.pid}) still runs {timeout_s:g} s after close: killed",
                  file=sys.stderr)
            proc.kill()
            proc.join(5.0)
            killed += 1
    return killed


# -- measurement --------------------------------------------------------

def plans_digest(records) -> str:
    """Digest of every decision the ops returned (the determinism check)."""
    doc = [
        (r.op.label, r.plan.decision_dict() if r.plan is not None else r.error)
        for r in records
    ]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def set_up(workload, ops, speed, repeats: int) -> list[tuple[float, float]]:
    """Set up ``repeats`` times; returns ``(wall seconds, slow-down)`` of each."""
    setups = []
    for repeat in range(repeats):
        speed.tick()
        t0 = _clock()
        workload.generate(ops)
        workload.start()
        wall = _clock() - t0
        speed.tick()
        setups.append((wall, speed.segments()[-1][2]))
        if repeat + 1 < repeats:
            workload.stop()
            join_children()
    return setups


def end_to_end(import_s, setups, quiet, measured, rss, records, check) -> tuple[dict, dict]:
    """The end-to-end metrics (times at quiet-host speed) and the raw readings."""
    costs = [r.plan.expected_cost for r in records if r.plan is not None]
    metrics = {
        "setup_s": (import_s / setups[0][1] + statistics.median(w / f for w, f in setups), "s"),
        "plan_s.p50": (quiet["plan_s.p50"], "s"),
        "plans_per_s": (quiet["plans_per_s"], "1/s"),
        "cpu_s_per_plan": (quiet["cpu_s_per_plan"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "plan_cost_usd.mean": (statistics.fmean(costs) if costs else 0.0, "usd"),
        "deadline_hit_rate": (
            statistics.fmean(check["hit_rates"]) if check["hit_rates"] else 0.0,
            "share",
        ),
    }
    measured = dict(measured, setup_s=import_s + statistics.median(w for w, _ in setups))
    return metrics, measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=_T_ENTER)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    from checks import PlanChecker
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.out_dir = str(OUT_DIR)
    import_s = time.time() - args.t0

    ops = workload.ops(args.seed, args.seconds, args.smoke)
    speed = HostSpeed()
    try:
        setups = set_up(workload, ops, speed, 1 if args.smoke else SETUP_REPEATS)
        records, segments, cpu = timed_pass(workload, ops, speed, tracer)
        rss = peak_rss_mb()
        layer_stats = workload.layer_stats()
    finally:
        workload.stop()
        killed = join_children()
    check = PlanChecker(workload.catalog, workload.workflows, workload.sim_plans).check(records)

    quiet, measured = quiet_timing(records, segments, cpu, speed)
    metrics, measured = end_to_end(import_s, setups, quiet, measured, rss, records, check)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(tracer),
        "smoke": args.smoke,
        "attempted": len(records),
        "failed": len(check["failures"]),
        "failures": {str(i): reason for i, reason in check["failures"].items()},
        "ops_digest": hashlib.sha256(repr(ops).encode()).hexdigest()[:16],
        "plans_digest": plans_digest(records),
        "as_measured": measured,
        "setup_repeats_s": [w for w, _ in setups],
        "import_s": import_s,
        "distinct_plans": check["distinct_plans"],
        "simulated_plans": check["simulated_plans"],
        "check_sim_s": check["sim_seconds"],
        "children_killed": killed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        import layers

        try:
            result["per_layer"] = layers.per_layer_metrics(
                workload, records, tracer, layer_stats, quiet, measured, speed
            )
        finally:
            result["children_killed"] += join_children()
        trace_path = OUT_DIR / f"trace-{workload.name}.json"
        tracer.dump(
            trace_path,
            {"workload": workload.name, "seed": args.seed, "ops": len(ops)},
        )
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
