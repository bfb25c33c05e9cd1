"""Where one ``Deco.schedule`` call spends its time: cProfile, top-N by self time.

    python3 benchmarks/profile_solve.py montage-8 --deadline tight --percentile 90 --warm
    python3 benchmarks/profile_solve.py montage-1 --kernel

``--warm`` profiles a second request on an engine that has already
served one (what a sweep or a service worker pays); without it the
engine is fresh.  Self time is what tells interpreter loops apart from
the array kernels they call -- this is the tool behind the shares quoted
in DESIGN.md §17.

``--kernel`` looks at the delta kernel instead (DESIGN.md §18): how many
launches and (slot, child) pairs one solve makes and what share of the
pairs sits on wide-fan-in levels, then the kernel's time per state on a
*search-shaped* batch -- 8 pinned parents x 6 single-task edits each,
what one beam iteration evaluates -- against the fused full kernel on
the same states.  The two must agree ``np.array_equal``: exit status 1
if they do not.  No timing threshold.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.cloud import ec2_catalog  # noqa: E402
from repro.engine.deco import Deco  # noqa: E402
from repro.solver.backends import CompiledProblem, VectorizedBackend  # noqa: E402
from repro.solver.cache import EvalContext  # noqa: E402
from repro.solver.state import PlanState  # noqa: E402
from repro.workflow import generators  # noqa: E402

WORKFLOWS = {
    "montage-1": lambda seed: generators.montage(degrees=1.0, seed=seed),
    "montage-4": lambda seed: generators.montage(degrees=4.0, seed=seed),
    "montage-8": lambda seed: generators.montage(degrees=8.0, seed=seed),
    "epigenomics-100": lambda seed: generators.epigenomics(100, seed=seed),
    "ligo-100": lambda seed: generators.ligo(100, seed=seed),
    "cybershake-100": lambda seed: generators.cybershake(100, seed=seed),
}


PARENTS, EDITS = 8, 6  # one beam iteration: expand_per_iter parents, ~6 MC-bound children each


def _median_us(fn, repeats: int = 15) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def kernel_report(deco: Deco, workflow, deadline, percentile: float) -> int:
    """Delta-kernel counts of one solve, then delta vs full on a search-shaped batch."""
    launches = {"evaluate": 0, "pin": 0, "pairs": 0, "wide_pairs": 0}
    launch = VectorizedBackend._delta_launch

    def counted(self, problem, assign, sizes, dirty, slots, in_place=False):
        result = launch(self, problem, assign, sizes, dirty, slots, in_place)
        launches["pin" if in_place else "evaluate"] += 1
        # The launch leaves its affected-pair mask in the pooled buffer.
        sched = problem.levels
        mask = self.pool.take("delta_mask", (sched.num_tasks + 1, len(slots)), bool)
        launches["pairs"] += int(mask.sum())
        launches["wide_pairs"] += sum(
            int(mask[lo:hi].sum())
            for (lo, hi), columns, gather in zip(
                sched.level_bounds, sched.level_columns, sched.level_parents
            )
            if columns is None and gather.shape[1]
        )
        return result

    VectorizedBackend._delta_launch = counted
    try:
        plan = deco.schedule(workflow, deadline, deadline_percentile=percentile)
    finally:
        VectorizedBackend._delta_launch = launch
    result = deco.last_result
    print(f"one solve: {plan.evaluations} evaluations, {result.exact_evals} at full fidelity, "
          f"{result.states_incremental} states through the delta kernel")
    print(f"  delta launches   {launches['evaluate']} evaluate + {launches['pin']} pin")
    print(f"  pairs recomputed {launches['pairs']} "
          f"({result.rows_recomputed / max(result.rows_total, 1):.3f} of the rows a full pass touches)")
    print(f"  wide-pair share  {launches['wide_pairs'] / max(launches['pairs'], 1):.3f} "
          "(pairs on levels with fan-in > 4)")

    problem = CompiledProblem.compile(
        workflow, deco.catalog, deadline=1e9, num_samples=deco.num_samples, seed=deco.seed
    )
    n, k = problem.num_tasks, problem.num_types
    stride = max(1, n // (PARENTS * EDITS))
    parents = [PlanState.uniform(n, 1).with_type((7 * g) % n, 2) for g in range(PARENTS)]
    children = []
    for g, parent in enumerate(parents):
        for e in range(EDITS):
            task = ((g * EDITS + e) * stride) % n
            children.append(parent.with_type(task, (int(parent.assignment[task]) + 1 + e % 2) % k))
    delta = VectorizedBackend(eval_context=EvalContext())
    delta.ensure_frontier(problem, *parents)
    full = VectorizedBackend()
    got = delta.makespan_samples(problem, children)
    want = full.makespan_samples(problem, children)
    identical = bool(np.array_equal(got, want))
    delta_us = _median_us(lambda: delta.makespan_samples(problem, children)) / len(children)
    full_us = _median_us(lambda: full.makespan_samples(problem, children)) / len(children)
    stats = delta.delta_stats()
    print(f"search-shaped batch: {PARENTS} parents x {EDITS} single-task edits, one launch")
    print(f"  delta kernel     {delta_us:8.1f} us/state "
          f"({stats['rows_recomputed'] / stats['rows_total']:.3f} of the rows)")
    print(f"  full kernel      {full_us:8.1f} us/state")
    print(f"  array_equal      {identical}")
    return 0 if identical else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workflow", choices=sorted(WORKFLOWS))
    ap.add_argument("--deadline", default="medium", help="tight / medium / loose or seconds")
    ap.add_argument("--percentile", type=float, default=96.0)
    ap.add_argument("--seed", type=int, default=7, help="workflow generator seed")
    ap.add_argument("--warm", action="store_true", help="serve one request before profiling")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--kernel", action="store_true",
                    help="delta-kernel counts and delta-vs-full timing instead of cProfile")
    args = ap.parse_args()

    workflow = WORKFLOWS[args.workflow](args.seed)
    deadline = args.deadline if args.deadline.isalpha() else float(args.deadline)
    # The engine knobs of benchmarks/e2e/workloads.py.
    deco = Deco(ec2_catalog(), seed=7, num_samples=150, max_evaluations=1500)
    if args.warm:
        deco.schedule(workflow, "medium", deadline_percentile=96.0)
    if args.kernel:
        print(f"{args.workflow}: {len(workflow)} tasks")
        return kernel_report(deco, workflow, deadline, args.percentile)
    profile = cProfile.Profile()
    plan = profile.runcall(deco.schedule, workflow, deadline, deadline_percentile=args.percentile)
    print(f"{args.workflow}: {len(workflow)} tasks, {plan.evaluations} evaluations, "
          f"{plan.solve_seconds * 1e3:.1f} ms in the search (profiled)")
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
