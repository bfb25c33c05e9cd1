"""Where one ``Deco.schedule`` call spends its time: cProfile, top-N by self time.

    python3 benchmarks/profile_solve.py montage-8 --deadline tight --percentile 90 --warm

``--warm`` profiles a second request on an engine that has already
served one (what a sweep or a service worker pays); without it the
engine is fresh.  Self time is what tells interpreter loops apart from
the array kernels they call -- this is the tool behind the shares quoted
in DESIGN.md §17.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cloud import ec2_catalog  # noqa: E402
from repro.engine.deco import Deco  # noqa: E402
from repro.workflow import generators  # noqa: E402

WORKFLOWS = {
    "montage-1": lambda seed: generators.montage(degrees=1.0, seed=seed),
    "montage-4": lambda seed: generators.montage(degrees=4.0, seed=seed),
    "montage-8": lambda seed: generators.montage(degrees=8.0, seed=seed),
    "epigenomics-100": lambda seed: generators.epigenomics(100, seed=seed),
    "ligo-100": lambda seed: generators.ligo(100, seed=seed),
    "cybershake-100": lambda seed: generators.cybershake(100, seed=seed),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workflow", choices=sorted(WORKFLOWS))
    ap.add_argument("--deadline", default="medium", help="tight / medium / loose or seconds")
    ap.add_argument("--percentile", type=float, default=96.0)
    ap.add_argument("--seed", type=int, default=7, help="workflow generator seed")
    ap.add_argument("--warm", action="store_true", help="serve one request before profiling")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    workflow = WORKFLOWS[args.workflow](args.seed)
    deadline = args.deadline if args.deadline.isalpha() else float(args.deadline)
    # The engine knobs of benchmarks/e2e/workloads.py.
    deco = Deco(ec2_catalog(), seed=7, num_samples=150, max_evaluations=1500)
    if args.warm:
        deco.schedule(workflow, "medium", deadline_percentile=96.0)
    profile = cProfile.Profile()
    plan = profile.runcall(deco.schedule, workflow, deadline, deadline_percentile=args.percentile)
    print(f"{args.workflow}: {len(workflow)} tasks, {plan.evaluations} evaluations, "
          f"{plan.solve_seconds * 1e3:.1f} ms in the search (profiled)")
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
