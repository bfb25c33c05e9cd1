"""Where one ``Deco.schedule`` call spends its time: cProfile, top-N by self time.

    python3 benchmarks/profile_solve.py montage-8 --deadline tight --percentile 90 --warm
    python3 benchmarks/profile_solve.py montage-1 --split
    python3 benchmarks/profile_solve.py montage-8 --split --warm
    python3 benchmarks/profile_solve.py --imports
    python3 benchmarks/profile_solve.py --wlog
    python3 benchmarks/profile_solve.py --resident montage-8 16
    python3 benchmarks/profile_solve.py --decisions > decisions.txt
    python3 benchmarks/profile_solve.py --kernel

``--warm`` profiles a second request on an engine that has already
served one (what a sweep or a service worker pays), and prints the
hits and misses that request added to each memo of
``Deco.cache_stats()`` -- makespan rows, tier 1's prefix rows, tier-0
moments and the search's edit memo (expanded parents) -- so a warm
profile says how much of it was lookups; without it
the engine is fresh.  Self time is what tells interpreter loops apart from
the array kernels they call -- this is the tool behind the shares quoted
in DESIGN.md §17.

``--split`` times the solver without cProfile: every function in
:data:`SPLIT` is wrapped in a ``perf_counter`` pair, and its *exclusive*
wall time (its own time minus that of the wrapped functions it calls)
is summed over cold solves of the family's generator seeds
:data:`SPLIT_SEEDS` -- the request of the ``cold-small-mc`` /
``cold-mid-mc`` / ``cold-large-cascade`` workloads, a fresh engine each.
It prints ms per solve and the share of the ``schedule`` call, grouped
into array *kernels*, per-candidate *bookkeeping* and the *engine* work
around the search (compile, its sample draws, tier 0's quantile
calibration, warm-start ladder).  A wrapper
costs well under a microsecond.  A name in :data:`SPLIT` that the tree
does not have is an error, so a rename cannot silently move time out of
a group.  No timing threshold.  ``--split --warm`` splits the
``sweep-large-warm`` op list instead: one engine, its warm-up at
medium/96 untimed, then :data:`DECISION_ROUNDS` rounds of the
workload's deadlines x percentiles, one table per round after the
round's ``reused:`` line, as ``--warm`` prints it (the family's
generator seed is ``--seed``; ``montage-8`` with the default 7 is the
workload's request).  In a later round every state has been seen, so
what is left is what a memo-hit solve costs.

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
``Deco.cache_stats()``; ``prefix`` is tier 1's prefix rows, ``expansions``
the search's edit memo).  Once the
problem memo is full the memos should stop growing; the scratch pool is
sized by the kernels' byte budgets, not by the largest batch.  No
threshold.

``--decisions`` prints what the engine decides, one line per request,
and no time: the pools of ``cold-small-mc``, ``cold-mid-mc`` and
``cold-large-cascade`` at medium/96, a fresh engine each, then the
``sweep-large-warm`` requests on one engine (its warm-up, then
:data:`DECISION_ROUNDS` rounds of its deadlines x percentiles).  Pools,
inputs and engine knobs are read from ``benchmarks/e2e/workloads.py``.
Each line carries the plan's expected cost, probability, feasibility,
evaluation count and a digest of its assignment, so two checkouts
decide alike exactly when ``diff`` finds their outputs equal.

``--kernel`` times the Monte Carlo kernel alone:
``VectorizedBackend.makespan_samples`` on one fixed seeded batch of
:data:`KERNEL_STATES` random states per workflow of :data:`KERNEL`
(S = 150, no memo), the median ms of :data:`KERNEL_CALLS` calls taken
in rounds over the workflows, and a SHA-256 of the rows.  Beside it are
SHA-256s of the other two passes of the level schedule on the same
batch: tier 0's ``AnalyticBackend.makespan_moments`` (the bytes of the
means, then of the variances) and ``expand.critical_paths`` over the
states' mean task times (the paths, then the lengths).  Two checkouts
compute the same numbers exactly when the digest columns are equal
(``awk '{print $1, $(NF-2), $(NF-1), $NF}'`` of each, then ``diff``).
No threshold.

``--imports`` looks at the cold path instead (DESIGN.md §19): the median
of five fresh-interpreter wall times of ``import repro.engine.deco``,
``repro schedule`` on Montage-1 and ``repro lint --bundled`` (with
``import numpy`` beside them, the floor this host sets), the ten largest
cumulative non-stdlib entries of ``-X importtime``, and which of
``scipy`` / ``scipy.special`` / ``scipy.stats`` are loaded after the
import, after a Montage-1 solve and after a Montage-8 solve (tier 0
runs on it).  Exit status 1 if any of them is loaded at any of the
three points.  No timing threshold.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
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

#: --warm: cache -> (``Deco.cache_stats()`` section, key prefix) whose reuse is printed.
REUSED = {"makespan": ("makespan", ""), "prefix": ("makespan", "prefix_"),
          "moments": ("moments", ""), "expansions": ("expansions", "")}

#: --resident: column -> (``Deco.cache_stats()`` section, entries key, bytes key).
RESIDENT = {
    "makespan": ("makespan", "entries", "nbytes"),
    "moments": ("moments", "entries", "nbytes"),
    "expansions": ("expansions", "entries", "nbytes"),
    "calibrations": ("analytic", "calibration_entries", "calibration_nbytes"),
    "screen": ("screen", "entries", "nbytes"),
    "prefix": ("makespan", "prefix_entries", "prefix_nbytes"),
    "scratch": ("scratch", "buffers", "nbytes"),
}


DECISION_ROUNDS = 2  # --decisions: rounds of the sweep after its warm-up

#: --kernel: the workflows, one per DAG shape the max-plus pass reads
#: differently (Montage's block joins, Epigenomics' chains, LIGO's
#: several sinks, CyberShake's one wide sink, a pure chain).
KERNEL = {
    "montage-1": WORKFLOWS["montage-1"],
    "montage-4": WORKFLOWS["montage-4"],
    "montage-8": WORKFLOWS["montage-8"],
    "epigenomics-100": WORKFLOWS["epigenomics-100"],
    "ligo-300": lambda seed: generators.ligo(300, seed=seed),
    "cybershake-300": lambda seed: generators.cybershake(300, seed=seed),
    "pipeline-50": lambda seed: generators.pipeline(50, seed=seed),
}
KERNEL_STATES = 64  # --kernel: states per batch
KERNEL_CALLS = 30  # --kernel: timed calls per workflow


def reuse_report(before: dict, after: dict) -> str:
    """The hits and misses one request added to each cache in :data:`REUSED`."""
    parts = []
    for name, (section, key) in REUSED.items():
        hits = after[section][f"{key}hits"] - before[section][f"{key}hits"]
        misses = after[section][f"{key}misses"] - before[section][f"{key}misses"]
        share = hits / (hits + misses) if hits + misses else 0.0
        parts.append(f"{name} {hits} hits / {misses} misses ({share:.0%})")
    return "reused: " + ", ".join(parts)


#: ``--split``: (group, owner, attribute) of every function timed.  An
#: owner ``module:Class`` names a method; a bare module names a function
#: as the *calling* module binds it.
SPLIT = (
    ("kernels", "repro.solver.backends:VectorizedBackend", "_makespan_full"),
    ("kernels", "repro.solver.levels:LevelSchedule", "propagate"),
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
    ("engine", "repro.workflow.runtime_model:RuntimeModel", "sample_tensor"),
    ("engine", "repro.solver.analytic_backend:AnalyticBackend", "_calibration"),
    ("engine", "repro.engine.deco:Deco", "_warm_starts"),
    ("engine", "repro.baselines.autoscaling", "autoscaling_choice"),
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


def _print_split(totals: dict, solves: int, op_s: float) -> None:
    """The ``--split`` table: ms per solve and share of the ops, by group."""
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
    print(f"{family}: {solves} cold solves (generator seeds {seeds.start}-{seeds.stop - 1}), "
          f"{len(workflows[0])} tasks, median op {statistics.median(ops) * 1e3:.1f} ms "
          f"(timers on)")
    _print_split(totals, solves, sum(ops))
    return 0


def split_warm_report(family: str, seed: int) -> int:
    """``--split --warm``: the split of each round of the ``sweep-large-warm`` op list."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
    import workloads

    workflow = WORKFLOWS[family](seed)
    deco = Deco(ec2_catalog(), **workloads.ENGINE)
    deco.schedule(workflow, "medium", 96.0)  # the warm-up, untimed
    requests = [(d, p) for d in workloads.SWEEP_DEADLINES for p in workloads.SWEEP_PERCENTILES]
    for r in range(DECISION_ROUNDS):
        before = deco.cache_stats()
        totals, restore = _install_split(SPLIT)
        ops = []
        try:
            for deadline, percentile in requests:
                t0 = time.perf_counter()
                deco.schedule(workflow, deadline, percentile)
                ops.append(time.perf_counter() - t0)
        finally:
            restore()
        print(f"{family}/s{seed} round {r}: {len(ops)} warm ops (deadlines x percentiles), "
              f"{sum(ops) * 1e3:.1f} ms, median op {statistics.median(ops) * 1e3:.1f} ms "
              f"(timers on)")
        print(reuse_report(before, deco.cache_stats()))
        _print_split(totals, len(ops), sum(ops))
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
    for label, loaded in points.items():
        print(f"  {label:<24} {', '.join(loaded) or 'none'}")
        failures += [f"{name} is loaded {label}" for name in loaded]
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def decision_line(label: str, plan) -> str:
    """One request's decision: cost, probability, feasibility, evaluations and
    a digest of the assignment."""
    assignment = json.dumps(sorted(plan.assignment.items())).encode()
    return (f"{label:<28} cost={plan.expected_cost!r} probability={plan.probability!r} "
            f"feasible={plan.feasible} evaluations={plan.evaluations} "
            f"assignment={hashlib.sha256(assignment).hexdigest()[:16]}")


def decisions_report() -> int:
    """``--decisions``: every cold-pool and sweep request's decision, one line each."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
    import workloads

    def engine():
        return Deco(ec2_catalog(), **workloads.ENGINE)

    for cold in (workloads.ColdSmallMC(), workloads.ColdMidMC(), workloads.ColdLargeCascade()):
        for family, seeds in cold.pool.items():
            for seed in seeds:
                plan = engine().schedule(cold.makers[family](seed), "medium", 96.0)
                print(decision_line(f"{family}/s{seed} medium/96", plan))
    sweep = workloads.SweepLargeWarm()
    (key,) = sweep.warmup_keys()
    family, _, seed = key.rpartition("/s")
    workflow = sweep.makers[family](int(seed))
    deco = engine()
    requests = [("warm-up", "medium", 96.0)] + [
        (f"round{r}", deadline, percentile)
        for r in range(DECISION_ROUNDS)
        for deadline in workloads.SWEEP_DEADLINES
        for percentile in workloads.SWEEP_PERCENTILES
    ]
    for label, deadline, percentile in requests:
        plan = deco.schedule(workflow, deadline, percentile)
        print(decision_line(f"{key} {label} {deadline}/{percentile:g}", plan))
    return 0


def kernel_report() -> int:
    """``--kernel``: median ms and a row digest of ``makespan_samples`` per
    workflow, beside digests of the moment and critical-path passes."""
    import numpy as np

    from repro.solver.analytic_backend import AnalyticBackend
    from repro.solver.backends import CompiledProblem, VectorizedBackend
    from repro.solver.expand import critical_paths
    from repro.solver.state import StateBlock

    def digest(*arrays) -> str:
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    catalog = ec2_catalog()
    cases = []
    for name, make in KERNEL.items():
        problem = CompiledProblem.compile(
            make(ENGINE["seed"]), catalog, deadline=1e9,
            num_samples=ENGINE["num_samples"], seed=ENGINE["seed"],
        )
        rng = np.random.default_rng(ENGINE["seed"])
        block = StateBlock(rng.integers(0, problem.num_types, (KERNEL_STATES, problem.num_tasks)))
        backend = VectorizedBackend()
        rows = backend.makespan_samples(problem, block)  # also sizes the pool
        means = problem.mean_times[block.assign, np.arange(problem.num_tasks)]
        digests = (digest(rows), digest(*AnalyticBackend().makespan_moments(problem, block)),
                   digest(*critical_paths(problem.levels, means)))
        cases.append((name, problem, block, backend, digests, []))
    for _ in range(KERNEL_CALLS):
        for _, problem, block, backend, _, times in cases:
            t0 = time.perf_counter()
            backend.makespan_samples(problem, block)
            times.append(time.perf_counter() - t0)
    print(f"makespan_samples: {KERNEL_STATES} states, S = {ENGINE['num_samples']}, "
          f"median of {KERNEL_CALLS} calls")
    print(f"{'workflow':<16} {'tasks':>5} {'levels':>6} {'ms':>8}  "
          "rows sha256, moments sha256, critical paths sha256")
    for name, problem, _, _, digests, times in cases:
        print(f"{name:<16} {problem.num_tasks:>5} {problem.levels.num_levels:>6} "
              f"{statistics.median(times) * 1e3:>8.3f}  {' '.join(digests)}")
    return 0


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
    ap.add_argument("--decisions", action="store_true",
                    help="one line per cold-pool and sweep request: cost, probability, "
                         "feasibility and an assignment digest")
    ap.add_argument("--kernel", action="store_true",
                    help="median ms and a row digest of makespan_samples on a fixed "
                         "64-state batch per workflow shape")
    args = ap.parse_args()

    if args.kernel:
        return kernel_report()
    if args.decisions:
        return decisions_report()
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
        ap.error("a workflow is required unless --imports, --wlog, --decisions or --kernel "
                 "is given")
    if args.split and args.warm:
        return split_warm_report(args.workflow, args.seed)
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
