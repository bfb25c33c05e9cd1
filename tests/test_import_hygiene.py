"""What a cold process imports, checked in fresh interpreters (DESIGN.md §19).

``scipy.stats`` costs about a second and 50 MB and ``scipy.special``
0.2 s; no ``schedule()``, compiled ``solve_program()``, ``repro lint`` or
``repro analyze`` needs the first, and only tier 0 (>= 256 tasks) needs
the second.  The suite itself preloads both (``tests/conftest.py``), so
every check here runs ``python -c`` and reads ``sys.modules`` there.
"""

import ast
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PRELUDE = """
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m in ("scipy", "scipy.special", "scipy.stats"))

def report(**doc):
    print(json.dumps(doc))
"""


def run_fresh(body: str) -> dict:
    """Run ``body`` in a new interpreter; returns the JSON it ``report()``s."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestSolvePathImports:
    def test_small_schedule_loads_no_scipy_large_loads_special_only(self):
        doc = run_fresh(
            """
            import repro.engine.deco
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco
            from repro.workflow.generators import montage

            after_import = scipy_loaded()
            deco = Deco(ec2_catalog(), seed=7, num_samples=150, max_evaluations=1500)
            small = deco.schedule(montage(1.0), "medium", 96)
            after_small = scipy_loaded()
            large = deco.schedule(montage(8.0), "medium", 96)
            report(after_import=after_import, after_small=after_small, after_large=scipy_loaded(),
                   feasible=[small.feasible, large.feasible],
                   tier0=deco.last_result.analytic_evals > 0,
                   heavy=sorted(m for m in sys.modules if m in (
                       "repro.cloud.simulator", "repro.cloud.calibration", "repro.parallel",
                       "repro.engine.ensemble", "repro.engine.followcost")))
            """
        )
        assert doc["after_import"] == [] and doc["after_small"] == []
        assert doc["tier0"] and doc["after_large"] == ["scipy", "scipy.special"]
        assert doc["feasible"] == [True, True]
        assert doc["heavy"] == []  # a serial schedule() runs no simulator and no pool

    def test_lint_and_analyze_bundled_load_no_scipy(self):
        doc = run_fresh(
            """
            import contextlib, io
            from repro.cli import main

            codes = []
            with contextlib.redirect_stdout(io.StringIO()):
                for verb in ("lint", "analyze"):
                    codes.append(main([verb, "--bundled"]))
            report(codes=codes, scipy=scipy_loaded())
            """
        )
        assert doc == {"codes": [0, 0], "scipy": []}

    def test_compiled_solve_program_loads_no_scipy_stats(self):
        doc = run_fresh(
            """
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco
            from repro.engine.plan import deadline_presets
            from repro.wlog.imports import ImportRegistry
            from repro.wlog.library import scheduling_program
            from repro.workflow.generators import pipeline

            catalog, wf = ec2_catalog(), pipeline(4, seed=1)
            registry = ImportRegistry()
            registry.register_cloud("amazonec2", catalog)
            registry.register_workflow("pipeline", wf)
            source = scheduling_program(
                cloud="amazonec2", workflow="pipeline", percentile=96.0,
                deadline_seconds=deadline_presets(wf, catalog).medium,
            )
            plan = Deco(catalog, seed=7, num_samples=150).solve_program(source, registry)
            report(feasible=plan.feasible, scipy=scipy_loaded())
            """
        )
        assert doc == {"feasible": True, "scipy": []}

    def test_degraded_service_job_does_not_import_the_bench_package(self):
        """The load-shed path runs when the queue is deep: it must not pull
        the figure drivers and their imports into a warm worker."""
        doc = run_fresh(
            """
            import repro.service.worker as worker
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco

            worker.init_service_worker(
                Deco(ec2_catalog(), seed=7, num_samples=50, max_evaluations=200).spec()
            )
            envelope = worker.solve_job({
                "workflow": {"app": "montage", "degrees": 1.0, "seed": 7},
                "deadline": "medium", "backend": "analytic",
            })
            report(bound=envelope["probability_error_bound"],
                   backend=envelope["plan"]["backend"],
                   bench=sorted(m for m in sys.modules if m.startswith("repro.bench")))
            """
        )
        assert doc == {"bound": 0.25, "backend": "analytic", "bench": []}


ON_DEMAND = {
    # snippet -> whether it needs scipy.stats (the simulator draws its
    # bandwidths from NumPy's generator: it runs without)
    "histogram": ("len(model.histogram(next(iter(wf)), 'm1.small')) >= 12", True),
    "execute": (
        "CloudSimulator(catalog, RngService(3), model).execute("
        "wf, {tid: 'm1.small' for tid in wf.task_ids}).makespan > 0",
        False,
    ),
    "fit_gamma": ("fit_gamma(rng.gamma(9.0, 2.0, 200)).family == 'gamma'", True),
    "truncated": ("TruncatedNormal(5.0, 2.0, lower=1.0).sample(rng, 3).min() >= 1", True),
}


@pytest.mark.parametrize("label", ON_DEMAND)
def test_first_user_loads_scipy_stats_by_itself(label):
    expression, needs_stats = ON_DEMAND[label]
    doc = run_fresh(
        f"""
        import numpy as np
        from repro.cloud import CloudSimulator, ec2_catalog
        from repro.common.rng import RngService
        from repro.distributions import TruncatedNormal, fit_gamma
        from repro.workflow.generators import pipeline
        from repro.workflow.runtime_model import RuntimeModel

        catalog, wf = ec2_catalog(), pipeline(2, seed=0)
        model, rng = RuntimeModel(catalog), np.random.default_rng(0)
        before = scipy_loaded()
        ok = bool({expression})
        report(before=before, ok=ok, stats="scipy.stats" in sys.modules)
        """
    )
    assert doc == {"before": [], "ok": True, "stats": needs_stats}


LAZY_NAMES = [
    ("repro.solver", "AnalyticBackend", "repro.solver.analytic_backend"),
    ("repro.cloud", "CloudSimulator", "repro.cloud.simulator"),
    ("repro.cloud", "ExecutionResult", "repro.cloud.simulator"),
    ("repro.cloud", "TaskRecord", "repro.cloud.simulator"),
    ("repro.cloud", "Calibrator", "repro.cloud.calibration"),
    ("repro.cloud", "CalibrationResult", "repro.cloud.calibration"),
    ("repro.engine", "EnsembleDriver", "repro.engine.ensemble"),
    ("repro.engine", "EnsembleDecision", "repro.engine.ensemble"),
    ("repro.engine", "MemberOutcome", "repro.engine.ensemble"),
    ("repro.engine", "FollowCostDriver", "repro.engine.followcost"),
    ("repro.engine", "FollowCostResult", "repro.engine.followcost"),
    ("repro.engine", "WorkflowDeployment", "repro.engine.followcost"),
]


class TestLazyPackageNames:
    @pytest.mark.parametrize("package, name, module", LAZY_NAMES)
    def test_public_name_is_importable_and_listed(self, package, name, module):
        import importlib

        pkg = importlib.import_module(package)
        assert name in pkg.__all__ and name in dir(pkg)
        value = getattr(pkg, name)
        assert value is getattr(importlib.import_module(module), name)
        assert vars(pkg)[name] is value  # resolved once, then a plain attribute

    def test_unknown_name_is_an_attribute_error(self):
        import repro.cloud

        with pytest.raises(AttributeError, match="no attribute 'CloudSimulatr'"):
            repro.cloud.CloudSimulatr
        with pytest.raises(ImportError):
            from repro.cloud import CloudSimulatr  # noqa: F401

    def test_packages_import_without_their_lazy_modules(self):
        doc = run_fresh(
            """
            import repro.cloud, repro.engine, repro.solver

            modules = %r
            eager = sorted(m for m in modules if m in sys.modules)
            listed = all(
                name in dir(sys.modules[pkg]) and name in sys.modules[pkg].__all__
                for pkg, name, _ in %r
            )
            from repro.solver import AnalyticBackend
            from repro.cloud import CloudSimulator, Calibrator
            from repro.engine import EnsembleDriver
            report(eager=eager, listed=listed,
                   now=sorted(m for m in modules if m in sys.modules), scipy=scipy_loaded())
            """
            % (sorted({m for _, _, m in LAZY_NAMES}), LAZY_NAMES)
        )
        assert doc["eager"] == [] and doc["listed"]
        assert doc["now"] == [
            "repro.cloud.calibration", "repro.cloud.simulator",
            "repro.engine.ensemble", "repro.solver.analytic_backend",
        ]
        assert doc["scipy"] == ["scipy", "scipy.special"]  # tier 0's, not scipy.stats


class TestForkAndPickle:
    def test_pickles_are_plain_values_and_load_without_scipy_stats(self):
        """What ``ShardPool`` / the simulator pool ship to a worker holds no
        reference to the deferred module, and unpickling imports none."""
        doc = run_fresh(
            """
            import pickle
            from repro.cloud import ec2_catalog
            from repro.distributions import GammaDistribution, NormalDistribution, TruncatedNormal
            from repro.workflow.generators import pipeline
            from repro.workflow.runtime_model import RuntimeModel

            catalog = ec2_catalog()
            model = RuntimeModel(catalog)
            model.mean_matrix(pipeline(2, seed=0))
            objects = [catalog, model, GammaDistribution(2.0, 3.0), NormalDistribution(1.0, 0.5),
                       TruncatedNormal(1.0, 0.5)]
            blobs = [pickle.dumps(obj, protocol=4) for obj in objects]
            clones = [pickle.loads(blob) for blob in blobs]
            report(scipy=scipy_loaded(), mentions=[b"scipy" in blob for blob in blobs],
                   equal=[a == b for a, b in zip(objects[2:], clones[2:])],
                   types=clones[0].type_names == catalog.type_names,
                   median=clones[0].type("m1.small").seq_io.percentile(50.0) > 0,
                   then=scipy_loaded())
            """
        )
        assert doc["scipy"] == [] and not any(doc["mentions"])
        assert all(doc["equal"]) and doc["types"] and doc["median"]
        assert "scipy.stats" in doc["then"]  # the clone loads it when a quantile is asked

    def test_forked_shard_resolves_tier0_in_the_prologue(self):
        """A shard worker forked while the parent has no SciPy imports
        ``scipy.special`` when a tier-0-sized problem is installed (the
        arena prologue adopts the shipped calibration), so its first
        screening round is not the one that pays."""
        doc = run_fresh(
            """
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco
            from repro.solver.shards import ShardPlane
            from repro.solver.state import PlanState, StateBlock
            from repro.workflow.generators import montage

            def probe(_payload):
                return scipy_loaded()

            deco = Deco(ec2_catalog(), seed=7, num_samples=50, max_evaluations=200)
            plane = ShardPlane(2, deco.spec(), deco._search)
            seen, parent = {}, []
            try:
                for key, degrees in ((1, 1.0), (2, 8.0)):
                    wf = montage(degrees, seed=1)
                    evaluator = plane.evaluator(deco._compiled(wf).with_deadline(1e6))
                    serial = evaluator is None or evaluator.pool.is_serial
                    if serial:
                        break
                    parent.append(scipy_loaded())
                    seen[str(key)] = evaluator.pool.gather(
                        [evaluator.pool.submit(s, probe, None) for s in range(2)]
                    )
                block = StateBlock.from_states(PlanState.uniform(len(wf), t) for t in range(4))
                moments = 0 if serial else len(evaluator.moments(block)[0])
            finally:
                plane.close()
            report(serial=serial, seen=seen, parent=parent, moments=moments)
            """
        )
        if doc["serial"]:
            pytest.skip("no process pool or shared memory on this host: shards run in-process")
        # The workers fork during Montage-1's prologue, before the parent
        # calibrates Montage-8 (which loads tier 0's SciPy there too).
        assert doc["parent"] == [[], ["scipy", "scipy.special"]]
        assert doc["seen"]["1"] == [[], []]  # forked SciPy-free, Montage-1 keeps them so
        assert doc["seen"]["2"] == [["scipy", "scipy.special"]] * 2
        assert doc["moments"] == 4


def _imported_names(module: str, path: Path) -> set[str]:
    """Every module name ``path`` may load: import statements (relative
    ones resolved against ``module``) and the module strings of a
    ``lazy_exports(...)`` table."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{node.module}" if node.module else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            names.update(
                const.value
                for arg in node.args
                for const in ast.walk(arg)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
            )
    return names


def _src_modules() -> dict[str, Path]:
    root = Path(SRC)
    return {
        ".".join(path.relative_to(root).with_suffix("").parts).removesuffix(".__init__"): path
        for path in sorted((root / "repro").rglob("*.py"))
    }


def _used_names(path: Path) -> set[str]:
    """Every name ``path``'s code refers to: bare names, attributes and
    imported names (comments and strings do not count)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def _reexport_used_outside(module: str, modules: dict[str, Path]) -> bool:
    """Whether a name ``module``'s package ``__init__`` imports from it is
    used in ``src/`` outside that package or in ``examples/``."""
    package = module.rpartition(".")[0]
    init = modules[package]
    exported = {
        name.removeprefix(module + ".")
        for name in _imported_names(package, init)
        if name.startswith(module + ".")
    }
    package_dir = init.parent
    users = [path for path in modules.values() if package_dir not in path.parents]
    users += sorted((Path(SRC).parent / "examples").rglob("*.py"))
    return any(exported & _used_names(path) for path in users)


def test_every_module_has_an_importer():
    """A module nothing in ``src/repro`` imports is dead code that only
    its own tests keep alive; ``python -m repro`` is the one entry point.
    Its own package ``__init__`` re-exporting it is a use only when one
    of the re-exported names is used outside the package, in ``src/`` or
    in ``examples/``."""
    modules = _src_modules()
    importers: dict[str, set[str]] = {}
    for module, path in modules.items():
        for name in _imported_names(module, path):
            importers.setdefault(name, set()).add(module)
    orphans = []
    for module, path in modules.items():
        if path.name == "__init__.py" or module == "repro.__main__":
            continue
        users = importers.get(module, set()) - {module}
        package = module.rpartition(".")[0]
        if users == {package} and not _reexport_used_outside(module, modules):
            users = set()
        if not users:
            orphans.append(module)
    assert orphans == []


def test_every_public_top_level_name_is_named_elsewhere():
    """A public top-level function or class that nothing names -- no code
    in its own module, and no other file under ``src/``, ``tests/``,
    ``examples/`` or ``benchmarks/``: not a caller, not a test, not a
    span table -- is dead code."""
    repo = Path(SRC).parent
    files_naming: dict[str, set[Path]] = {}
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in (repo / top).rglob("*.py"):
            for word in set(re.findall(r"\w+", path.read_text())):
                files_naming.setdefault(word, set()).add(path)
    dead = []
    for module, path in _src_modules().items():
        used_here = _used_names(path)
        dead += [
            f"{module}.{node.name}"
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in used_here
            and not files_naming.get(node.name, set()) - {path}
        ]
    assert dead == []


#: Every entry point a solve or a service job passes through, as
#: ``(module, qualified name)``; calls are matched by the last part of the
#: name.  An entry point added later joins the guard with one row.
ENTRY_POINTS = [
    ("repro.engine.deco", "Deco"),
    ("repro.engine.deco", "Deco.schedule"),
    ("repro.engine.deco", "Deco.solve_program"),
    ("repro.engine.ensemble", "EnsembleDriver"),
    ("repro.solver.search", "GenericSearch"),
    ("repro.solver.search", "AStarSearch"),
    ("repro.solver.backends", "VectorizedBackend"),
    ("repro.solver.analytic_backend", "AnalyticBackend"),
    ("repro.solver.cache", "MakespanCache"),
    ("repro.solver.cache", "EvalContext"),
    ("repro.solver.cache", "ScratchPool"),
    ("repro.solver.shards", "ShardPlane"),
    ("repro.parallel.arena", "TensorArena"),
    ("repro.parallel.executor", "ShardPool"),
    ("repro.parallel.executor", "workers_from_env"),
    ("repro.service.runtime", "ServiceConfig"),
    ("repro.service.runtime", "DecoService"),
    ("repro.service.pool", "WarmWorkerPool"),
    ("repro.service.queue", "DurableQueue"),
    ("repro.service.queue", "TokenBucket"),
    ("repro.service.cache", "PlanCache"),
    ("repro.service.http", "ServiceClient"),
    ("repro.wlog.engine", "Engine"),
    ("repro.wlog.analysis", "analyze_program"),
    ("repro.wlog.analysis", "check_program"),
    ("repro.wlog.analysis", "reject_fatal"),
    ("repro.wlog.diagnostics", "make"),
    ("repro.wlog.library", "ensemble_program"),
    ("repro.wlog.probir", "translate"),
    ("repro.wlog.imports", "ImportRegistry"),
    ("repro.workflow.runtime_model", "RuntimeModel"),
]

#: Parameters no program file passes, and why each one stays.
NO_CALLER_NEEDED = {
    ("Deco", "faults"): "worker engines rebuilt from Deco.spec() get a fault model only here",
    ("Deco", "recovery"): "worker engines rebuilt from Deco.spec() get a recovery policy only here",
    ("GenericSearch", "analytic_min_tasks"): "the Monte-Carlo-only reference solve (no tier 0)",
    ("translate", "deterministic"): "the p = 1 reference the interpreter is compared with",
    ("TokenBucket", "clock"): "the fake-clock seam of the token-bucket tests",
    ("ServiceClient", "timeout_s"): "a deployment setting of the HTTP client",
}


def test_every_engine_parameter_has_a_caller(catalog):
    """Every parameter of every :data:`ENTRY_POINTS` row is passed -- by
    keyword or by position -- by some call under ``src/``,
    ``benchmarks/`` or ``examples/``, unless :data:`NO_CALLER_NEEDED`
    says why not.  A setting only tests pass is one more option every
    test and benchmark must cover for no caller: it is a constant."""
    import importlib

    parameters = {}
    for module, qualname in ENTRY_POINTS:
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        parameters[qualname.rpartition(".")[2]] = [
            p.name
            for p in inspect.signature(target).parameters.values()
            if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
    repo = Path(SRC).parent
    passed = set(NO_CALLER_NEEDED)
    for top in ("src", "benchmarks", "examples"):
        for path in (repo / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in parameters:
                    continue
                positional = list(
                    itertools.takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
                )
                passed.update((name, p) for p in parameters[name][: len(positional)])
                passed.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
    declared = {(name, p) for name, ps in parameters.items() for p in ps}
    assert set(NO_CALLER_NEEDED) <= declared  # no stale reason
    assert sorted(declared - passed) == []
    # What a worker engine is rebuilt from: every constructor argument but
    # ``workers`` (a rebuilt engine always solves in-process).
    from repro.engine.deco import Deco

    assert set(Deco(catalog).spec()) == set(parameters["Deco"]) - {"workers"}


#: Public methods no file under ``src/``, ``benchmarks/`` or
#: ``examples/`` names, and why each one stays.
TEST_ONLY_METHODS = {
    "EnsembleDriver.decide_via_wlog": "the WLog reference semantics of use case 2",
    "FollowCostDriver.wlog_choose_region": "the WLog reference semantics of use case 3",
    "StateEval.better_than": "the scalar incumbent rule GenericSearch._improvements is tested against",
    "Handler.do_GET": "BaseHTTPRequestHandler dispatches it by name",
    "Handler.do_POST": "BaseHTTPRequestHandler dispatches it by name",
    "Handler.log_message": "BaseHTTPRequestHandler calls it by name",
    "DecoService.run_until_idle": "the synchronous dispatcher driver of the service tests and chaos run",
}


def _public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """``(qualname, name)`` of every public function in the body of a
    public class, nested classes (also those inside functions) included;
    properties, classmethods and staticmethods are functions too."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if child.name.startswith("_"):
                    continue
                qualname = prefix + child.name
                found.extend(
                    (f"{qualname}.{item.name}", item.name)
                    for item in child.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_every_public_method_has_a_program_caller():
    """Every public method of every public class under ``src/repro`` is
    named by some file under ``src/``, ``benchmarks/`` or ``examples/``
    -- as a name, an attribute, an import alias or an identifier string
    (``getattr`` dispatch, ``LAYER_SPANS``) -- unless
    :data:`TEST_ONLY_METHODS` says why not.  Tests do not count: a
    method only they call is dead code they keep alive."""
    repo = Path(SRC).parent
    named: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (repo / top).rglob("*.py"):
            named |= _used_names(path)
            named.update(
                node.value
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            )
    methods = [
        method
        for path in _src_modules().values()
        for method in _public_methods(ast.parse(path.read_text(), str(path)))
    ]
    assert set(TEST_ONLY_METHODS) <= {qualname for qualname, _ in methods}  # no stale reason
    assert sorted(q for q, name in methods if name not in named and q not in TEST_ONLY_METHODS) == []
