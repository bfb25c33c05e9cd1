"""Where one ``Deco.schedule`` call spends its time: cProfile, top-N by self time.

    python3 benchmarks/profile_solve.py montage-8 --deadline tight --percentile 90 --warm
    python3 benchmarks/profile_solve.py montage-1 --kernel
    python3 benchmarks/profile_solve.py --imports

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

``--imports`` looks at the cold path instead (DESIGN.md §19): the median
of five fresh-interpreter wall times of ``import repro.engine.deco``,
``repro schedule`` on Montage-1 and ``repro lint --bundled`` (with
``import numpy`` beside them, the floor this host sets), the ten largest
cumulative non-stdlib entries of ``-X importtime``, and which of
``scipy`` / ``scipy.special`` / ``scipy.stats`` are loaded after the
import, after a Montage-1 solve and after a Montage-8 solve.  Exit
status 1 if ``scipy.stats`` is loaded at any of the three points or
``scipy.special`` at the first two.  No timing threshold.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

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


COLD_COMMANDS = {
    "import numpy": ["-c", "import numpy"],
    "import repro.engine.deco": ["-c", "import repro.engine.deco"],
    "repro schedule (Montage-1)": ["-m", "repro", "schedule", "--app", "montage", "--degrees", "1",
                                   "--samples", "150", "--evals", "1500"],
    "repro lint --bundled": ["-m", "repro", "lint", "--bundled"],
}

# Runs in a fresh interpreter: which SciPy packages each point has loaded.
SCIPY_PROBE = """
import json, sys
import repro.engine.deco
from repro.cloud import ec2_catalog
from repro.engine.deco import Deco
from repro.workflow.generators import montage

def loaded():
    return sorted(m for m in sys.modules if m in ("scipy", "scipy.special", "scipy.stats"))

points = {"after import": loaded()}
deco = Deco(ec2_catalog(), seed=7, num_samples=150, max_evaluations=1500)
for label, degrees in (("after a Montage-1 solve", 1.0), ("after a Montage-8 solve", 8.0)):
    deco.schedule(montage(degrees=degrees, seed=7), "medium", deadline_percentile=96.0)
    points[label] = loaded()
print(json.dumps(points))
"""


def imports_report(repeats: int = 5, top: int = 10) -> int:
    """Cold-path wall times, the import-time table and the SciPy gate."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def fresh(args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, check=True)

    print(f"fresh-interpreter wall time, median of {repeats}")
    for label, args in COLD_COMMANDS.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fresh(args)
            times.append(time.perf_counter() - t0)
        print(f"  {label:<28} {statistics.median(times):6.3f} s   "
              f"(min {min(times):.3f}, max {max(times):.3f})")

    entries = []
    for line in fresh(["-X", "importtime", "-c", "import repro.engine.deco"]).stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].strip()
            if name.partition(".")[0] not in sys.stdlib_module_names:
                entries.append((int(fields[1]), int(fields[0]), name))
    print(f"-X importtime of `import repro.engine.deco`: {top} largest cumulative, stdlib left out")
    print(f"  {'cumulative ms':>13} {'self ms':>8}  module")
    for cumulative, own, name in sorted(entries, reverse=True)[:top]:
        print(f"  {cumulative / 1e3:13.1f} {own / 1e3:8.1f}  {name}")

    points = json.loads(fresh(["-c", SCIPY_PROBE]).stdout.splitlines()[-1])
    print("SciPy packages loaded")
    failures = []
    for index, (label, loaded) in enumerate(points.items()):
        print(f"  {label:<24} {', '.join(loaded) or 'none'}")
        banned = {"scipy.stats"} | ({"scipy.special"} if index < 2 else set())
        failures += [f"{name} is loaded {label}" for name in sorted(banned & set(loaded))]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workflow", choices=sorted(WORKFLOWS), nargs="?")
    ap.add_argument("--imports", action="store_true",
                    help="cold-path report: fresh-interpreter wall times, -X importtime, "
                         "SciPy gate")
    ap.add_argument("--deadline", default="medium", help="tight / medium / loose or seconds")
    ap.add_argument("--percentile", type=float, default=96.0)
    ap.add_argument("--seed", type=int, default=7, help="workflow generator seed")
    ap.add_argument("--warm", action="store_true", help="serve one request before profiling")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--kernel", action="store_true",
                    help="delta-kernel counts and delta-vs-full timing instead of cProfile")
    args = ap.parse_args()

    if args.imports:
        return imports_report()
    if args.workflow is None:
        ap.error("a workflow is required unless --imports is given")
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
