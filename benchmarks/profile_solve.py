"""Where one ``Deco.schedule`` call spends its time: cProfile, top-N by self time.

    python3 benchmarks/profile_solve.py montage-8 --deadline tight --percentile 90 --warm
    python3 benchmarks/profile_solve.py montage-1 --split
    python3 benchmarks/profile_solve.py --imports
    python3 benchmarks/profile_solve.py --wlog
    python3 benchmarks/profile_solve.py --resident montage-8 16

``--warm`` profiles a second request on an engine that has already
served one (what a sweep or a service worker pays), and prints the
hits and misses that request added to each evaluation cache of
``Deco.cache_stats()`` -- makespan rows and tier-0 moments -- so a
warm profile says how much of it was lookups; without it the
engine is fresh.  Self time is what tells interpreter loops apart from
the array kernels they call -- this is the tool behind the shares quoted
in DESIGN.md §17.

``--split`` times the solver without cProfile: every function in
:data:`SPLIT` is wrapped in a ``perf_counter`` pair, and its *exclusive*
wall time (its own time minus that of the wrapped functions it calls)
is summed over cold solves of the family's generator seeds
:data:`SPLIT_SEEDS` -- the request of the ``cold-small-mc`` /
``cold-mid-mc`` workloads, a fresh engine each.  It prints ms per solve and the share of the ``schedule``
call, grouped into array *kernels*, per-candidate *bookkeeping* and the
*engine* work around the search (compile, warm-start ladder).  A wrapper
costs well under a microsecond.  A name in :data:`SPLIT` that the tree
does not have is an error, so a rename cannot silently move time out of
a group.  No timing threshold.

``--wlog`` splits the ``wlog-declarative`` request instead: a fresh
engine and registry per request, ``Deco.solve_program`` on the bundled
scheduling program over a 1-task pipeline (generator seeds
:data:`WLOG_SEEDS`, deadline ``medium``, 96th percentile).  Every phase
in :data:`WLOG_PHASES` -- parse, check, semantic, translate, compile,
warm start, solve -- is wrapped as in ``--split``; it prints each
phase's median ms per request over :data:`WLOG_ROUNDS` rounds of the
seeds, and its share of the median request.  No timing threshold.

``--resident FAMILY N`` looks at what a warm engine keeps: it solves N
distinct workflows of the family (generator seeds ``--seed`` onwards,
deadline ``medium``, 96th percentile) on one engine, as a service worker
does, and after each solve prints the process's ``VmRSS`` and ``VmHWM``
(its high-water mark, what the benchmark's ``peak_rss_mb`` reads), the
compiled problems the engine holds, each token-keyed memo's entries and
bytes and the scratch pool's buffers and bytes (:data:`RESIDENT`, from
``Deco.cache_stats()``).  Once the problem memo is full the memos should
stop growing; the scratch pool is sized by the kernels' byte budgets,
not by the largest batch.  No threshold.

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


#: The engine knobs of benchmarks/e2e/workloads.py.
ENGINE = {"seed": 7, "num_samples": 150, "max_evaluations": 1500}

SPLIT_SEEDS = range(6)  # --split: the generator seeds of the cold solves

WLOG_SEEDS = range(5)  # --wlog: the pipeline generator seeds of wlog-declarative
WLOG_ROUNDS = 40  # --wlog: requests per seed

REUSED = ("makespan", "moments")  # --warm: the caches whose reuse is printed

#: --resident: column -> (``Deco.cache_stats()`` section, entries key, bytes key).
RESIDENT = {
    "makespan": ("makespan", "entries", "nbytes"),
    "moments": ("moments", "entries", "nbytes"),
    "calibrations": ("analytic", "calibration_entries", "calibration_nbytes"),
    "screen": ("screen", "entries", "nbytes"),
    "scratch": ("scratch", "buffers", "nbytes"),
}


def reuse_report(before: dict, after: dict) -> str:
    """The hits and misses one request added to each cache in :data:`REUSED`."""
    parts = []
    for name in REUSED:
        hits = after[name]["hits"] - before[name]["hits"]
        misses = after[name]["misses"] - before[name]["misses"]
        share = hits / (hits + misses) if hits + misses else 0.0
        parts.append(f"{name} {hits} hits / {misses} misses ({share:.0%})")
    return "reused: " + ", ".join(parts)


#: ``--split``: (group, owner, attribute) of every function timed.  An
#: owner ``module:Class`` names a method; a bare module names a function
#: as the *calling* module binds it.
SPLIT = (
    ("kernels", "repro.solver.backends:VectorizedBackend", "_makespan_full"),
    ("kernels", "repro.solver.levels:LevelSchedule", "propagate_permuted"),
    ("kernels", "repro.solver.expand", "critical_paths"),
    ("kernels", "repro.solver.analytic_backend:AnalyticBackend", "makespan_moments"),
    ("kernels", "repro.solver.backends:CompiledProblem", "expected_cost_batch"),
    ("bookkeeping", "repro.solver.search:GenericSearch", "solve"),
    ("bookkeeping", "repro.solver.search:GenericSearch", "_settle"),
    ("bookkeeping", "repro.solver.search:GenericSearch", "_rank"),
    ("bookkeeping", "repro.solver.search", "expand_batch"),
    ("bookkeeping", "repro.solver.tiers:_ScreenTier", "settle"),
    ("bookkeeping", "repro.solver.tiers:MonteCarloTier", "settle"),
    ("bookkeeping", "repro.solver.search:LocalEvaluator", "evaluate"),
    ("bookkeeping", "repro.solver.search:LocalEvaluator", "screen"),
    ("bookkeeping", "repro.solver.backends:EvaluationBackend", "evaluate_batch"),
    ("bookkeeping", "repro.solver.backends:VectorizedBackend", "_sample_rows"),
    ("bookkeeping", "repro.solver.cache:MakespanCache", "fetch"),
    ("bookkeeping", "repro.solver.backends:VectorizedBackend", "makespan_samples"),
    ("bookkeeping", "repro.solver.backends:VectorizedBackend", "screen_probabilities"),
    ("bookkeeping", "repro.solver.backends", "validated_assignments"),
    ("engine", "repro.engine.deco:Deco", "schedule"),
    ("engine", "repro.solver.backends:CompiledProblem", "compile"),
    ("engine", "repro.baselines.autoscaling", "autoscaling_plan"),
)


def _install_split(table):
    """Wrap every function of ``table``; return the totals and an undo."""
    import importlib

    totals: dict[tuple[str, str], list] = {}  # (group, name) -> [calls, exclusive s]
    stack: list[list[float]] = []  # [start, time of wrapped callees]
    undo = []

    def wrap(fn, key):
        entry = totals.setdefault(key, [0, 0.0])

        def timed(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed

    for group, owner_path, attr in table:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            raise AttributeError(f"--split: {owner_path} has no {attr}")
        name = f"{class_name or module_name.rpartition('.')[2]}.{attr}"
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        setattr(owner, attr, kind(wrap(fn, (group, name))) if kind else wrap(fn, (group, name)))
        undo.append((owner, attr, raw))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return totals, restore


def split_report(family: str) -> int:
    """Exclusive wall time per solver function over cold solves of one family."""
    seeds = SPLIT_SEEDS
    solves = len(seeds)
    workflows = [WORKFLOWS[family](seed) for seed in seeds]
    Deco(ec2_catalog(), **ENGINE).schedule(WORKFLOWS[family](99), "medium", 96.0)  # imports
    totals, restore = _install_split(SPLIT)
    ops = []
    try:
        for workflow in workflows:
            t0 = time.perf_counter()
            Deco(ec2_catalog(), **ENGINE).schedule(workflow, "medium", 96.0)
            ops.append(time.perf_counter() - t0)
    finally:
        restore()
    op_s = sum(ops)
    print(f"{family}: {solves} cold solves (generator seeds {seeds.start}-{seeds.stop - 1}), "
          f"{len(workflows[0])} tasks, median op {statistics.median(ops) * 1e3:.1f} ms "
          f"(timers on)")
    print(f"  {'group':<12} {'function':<44} {'calls':>7} {'ms/solve':>9} {'share':>6}")
    for group in ("kernels", "bookkeeping", "engine"):
        rows = sorted(
            (
                (name, calls, sec)
                for (g, name), (calls, sec) in totals.items()
                if g == group and calls
            ),
            key=lambda row: -row[2],
        )
        for name, calls, sec in rows:
            print(f"  {group:<12} {name:<44} {calls / solves:7.0f} "
                  f"{sec / solves * 1e3:9.2f} {sec / op_s:6.3f}")
        sec = sum(row[2] for row in rows)
        print(f"  {group:<12} {'total':<44} {'':>7} {sec / solves * 1e3:9.2f} {sec / op_s:6.3f}")
    return 0


#: ``--wlog``: the phases of ``Deco.solve_program``, as (phase, owner, attribute).
#: ``check_program``, ``translate`` and ``compile_or_raise`` are wrapped where
#: the engine looks them up: as globals of ``repro.engine.deco``.
WLOG_PHASES = (
    ("parse", "repro.wlog.program:WLogProgram", "from_source"),
    ("check", "repro.engine.deco", "check_program"),
    ("semantic", "repro.analysis", "analyze_semantics"),
    ("translate", "repro.engine.deco", "translate"),
    ("compile", "repro.engine.deco", "compile_or_raise"),
    ("warm start", "repro.engine.deco:Deco", "_warm_starts"),
    ("solve", "repro.engine.deco:Deco", "_solve"),
)


def wlog_report() -> int:
    """Median per-phase wall time of the ``wlog-declarative`` request."""
    from repro.engine.plan import deadline_presets
    from repro.wlog.imports import ImportRegistry
    from repro.wlog.library import scheduling_program

    catalog = ec2_catalog()
    requests = []
    for seed in WLOG_SEEDS:
        workflow = generators.pipeline(1, seed=seed)
        source = scheduling_program(
            cloud="amazonec2", workflow="pipeline", percentile=96.0,
            deadline_seconds=deadline_presets(workflow, catalog).medium,
        )
        requests.append((workflow, source))

    def request(workflow, source):
        registry = ImportRegistry()
        registry.register_cloud("amazonec2", catalog)
        registry.register_workflow("pipeline", workflow)
        return Deco(catalog, **ENGINE).solve_program(source, registry)

    request(*requests[0])  # imports and lazy set-up
    totals, restore = _install_split(WLOG_PHASES)
    samples: dict[str, list[float]] = {phase: [] for phase, _owner, _attr in WLOG_PHASES}
    ops = []
    try:
        for _ in range(WLOG_ROUNDS):
            for workflow, source in requests:
                before = {key: sec for key, (_calls, sec) in totals.items()}
                t0 = time.perf_counter()
                request(workflow, source)
                ops.append(time.perf_counter() - t0)
                for key, (_calls, sec) in totals.items():
                    samples[key[0]].append(sec - before.get(key, 0.0))
    finally:
        restore()
    op_ms = statistics.median(ops) * 1e3
    print(f"wlog-declarative: {len(ops)} requests (pipeline seeds {WLOG_SEEDS.start}-"
          f"{WLOG_SEEDS.stop - 1}, {WLOG_ROUNDS} rounds), median request {op_ms:.3f} ms "
          f"(timers on)")
    print(f"  {'phase':<12} {'ms':>7} {'share':>6}")
    rest = op_ms
    for phase, times in samples.items():
        ms = statistics.median(times) * 1e3 if times else 0.0
        rest -= ms
        print(f"  {phase:<12} {ms:7.3f} {ms / op_ms:6.3f}")
    print(f"  {'other':<12} {rest:7.3f} {rest / op_ms:6.3f}")
    return 0


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


def _vm_mb(field: str) -> float:
    """This process's ``VmRSS`` / ``VmHWM``, from ``/proc/self/status`` (NaN elsewhere)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(f"{field}:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def resident_report(family: str, count: int, seed: int) -> int:
    """``--resident``: ``count`` distinct workflows of ``family`` on one warm engine."""
    deco = Deco(ec2_catalog(), **ENGINE)
    print(f"{family}: {count} workflows (generator seeds {seed}-{seed + count - 1}), "
          f"one engine; each memo as entries/MB, scratch as buffers/MB")
    print(f"{'solve':>5} {'VmRSS MB':>9} {'VmHWM MB':>9} {'problems':>8} "
          + " ".join(f"{name:>17}" for name in RESIDENT))
    for i in range(count):
        deco.schedule(WORKFLOWS[family](seed + i), "medium", deadline_percentile=96.0)
        stats = deco.cache_stats()
        cells = []
        for section, entries, nbytes in RESIDENT.values():
            memo = stats.get(section, {})
            cells.append(f"{memo.get(entries, 0)}/{memo.get(nbytes, 0) / 2**20:.1f}")
        print(f"{i + 1:>5} {_vm_mb('VmRSS'):>9.1f} {_vm_mb('VmHWM'):>9.1f} "
              f"{stats['compiled_problems']:>8} "
              + " ".join(f"{cell:>17}" for cell in cells))
    return 0


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
    ap.add_argument("--wlog", action="store_true",
                    help="median per-phase split of the wlog-declarative request")
    ap.add_argument("--split", action="store_true",
                    help="exclusive wall time per solver function over cold solves of the "
                         "family (perf_counter wrappers, no cProfile)")
    ap.add_argument("--resident", nargs=2, metavar=("FAMILY", "N"),
                    help="VmRSS, VmHWM, every token-keyed memo's and the scratch pool's size "
                         "after each of N distinct solves of FAMILY on one engine")
    args = ap.parse_args()

    if args.resident:
        family, count = args.resident
        if family not in WORKFLOWS or not count.isdigit() or int(count) < 1:
            ap.error(f"--resident takes one of {', '.join(sorted(WORKFLOWS))} and a count >= 1")
        return resident_report(family, int(count), args.seed)
    if args.imports:
        return imports_report()
    if args.wlog:
        return wlog_report()
    if args.workflow is None:
        ap.error("a workflow is required unless --imports or --wlog is given")
    if args.split:
        return split_report(args.workflow)
    workflow = WORKFLOWS[args.workflow](args.seed)
    deadline = args.deadline if args.deadline.isalpha() else float(args.deadline)
    deco = Deco(ec2_catalog(), **ENGINE)
    if args.warm:
        deco.schedule(workflow, "medium", deadline_percentile=96.0)
    before = deco.cache_stats()
    profile = cProfile.Profile()
    plan = profile.runcall(deco.schedule, workflow, deadline, deadline_percentile=args.percentile)
    print(f"{args.workflow}: {len(workflow)} tasks, {plan.evaluations} evaluations, "
          f"{plan.solve_seconds * 1e3:.1f} ms in the search (profiled)")
    if args.warm:
        print(reuse_report(before, deco.cache_stats()))
    pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
