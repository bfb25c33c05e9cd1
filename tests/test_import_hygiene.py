"""What a cold process imports, checked in fresh interpreters (DESIGN.md §19).

``scipy.stats`` costs about a second and 50 MB and ``scipy.special``
0.2 s; no ``schedule()``, compiled ``solve_program()``, ``repro lint`` or
``repro analyze`` needs the first, and only tier 0 (>= 256 tasks) needs
the second.  The suite itself preloads both (``tests/conftest.py``), so
every check here runs ``python -c`` and reads ``sys.modules`` there.
"""

import json
import os
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
        prologue), so its first screening round is not the one that pays."""
        doc = run_fresh(
            """
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco
            from repro.parallel.executor import ShardPool
            from repro.parallel.workers import beam_begin_solve, beam_screen_job, init_beam_worker
            from repro.solver.state import PlanState
            from repro.workflow.generators import montage

            def probe(_payload):
                return scipy_loaded()

            spec = Deco(ec2_catalog(), seed=7, num_samples=50, max_evaluations=200).spec()
            seen = {}
            pool = ShardPool(2, initializer=init_beam_worker, initargs=(spec,))
            try:
                serial = pool.is_serial
                for key, degrees in ((1, 1.0), (2, 8.0)):
                    wf = montage(degrees, seed=1)
                    pool.broadcast(
                        beam_begin_solve, (key, f"wf{key}", wf, None, 1e6, 96.0, None, None, None)
                    )
                    seen[str(key)] = pool.gather([pool.submit(s, probe, None) for s in range(2)])
                states = [PlanState.uniform(len(wf), t) for t in range(4)]
                mean, var, probs, _ = pool.gather(
                    [pool.submit(0, beam_screen_job, (2, states, True, False, 50))]
                )[0]
            finally:
                pool.close()
            report(serial=serial, seen=seen, parent=scipy_loaded(), moments=len(mean))
            """
        )
        if doc["serial"]:
            pytest.skip("no process pool on this host: shards run in-process")
        assert doc["seen"]["1"] == [[], []]  # forked SciPy-free, Montage-1 keeps them so
        assert doc["seen"]["2"] == [["scipy", "scipy.special"]] * 2
        assert doc["parent"] == [] and doc["moments"] == 4
