"""One timed pass over an op list, stated at quiet-host speed."""

from __future__ import annotations

import statistics

from proctree import tree_cpu_s


def timed_pass(workload, ops, speed, tracer=None):
    """Run the ops once; returns ``(records, host-speed segments, tree CPU seconds)``."""
    first_tick = len(speed.ticks)
    cpu0 = tree_cpu_s()
    records = workload.run_ops(ops, speed, tracer)
    cpu = tree_cpu_s() - cpu0
    return records, speed.segments(first_tick), cpu


def quiet_timing(records, segments, cpu, speed) -> tuple[dict, dict]:
    """``(at quiet-host speed, as measured)``: p50 latency, throughput, CPU per op.

    Each op's latency is divided by the slow-down of the segment it ran
    in, the wall time segment by segment, and the CPU time by the
    slow-down of the pass as a whole (see ``hostspeed.py``).
    """
    n = len(records)
    wall = sum(end - start for start, end, _ in segments)
    quiet_wall = sum((end - start) / factor for start, end, factor in segments)
    quiet = {
        "plan_s.p50": statistics.median(
            r.latency_s / speed.slowdown_at(r.t0 + r.latency_s / 2.0) for r in records
        ),
        "plans_per_s": n / quiet_wall,
        "cpu_s_per_plan": cpu / n * quiet_wall / wall,
    }
    measured = {
        "plan_s.p50": statistics.median(r.latency_s for r in records),
        "plans_per_s": n / wall,
        "cpu_s_per_plan": cpu / n,
        "timed_wall_s": wall,
        "host_slowdown": wall / quiet_wall,
    }
    return quiet, measured
