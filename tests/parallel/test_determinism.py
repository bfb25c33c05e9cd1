"""Determinism regression tests: worker count must never change results.

The contract: ``run_many``, ``member_plans`` and the bench drivers
produce byte-identical outputs for ``workers=1`` and ``workers=4`` with
the same seed, because every stochastic draw derives statelessly from
``(seed, path)`` and, on these configurations, solves are
cache-transparent (``TestWarmEngineMatchesFreshEngine`` pins where they
are not).
"""

import dataclasses
import json
import multiprocessing
import os
import warnings

import pytest

from repro.cloud.instance_types import ec2_catalog
from repro.cloud.simulator import CloudSimulator
from repro.common.rng import RngService
from repro.engine.deco import Deco
from repro.engine.ensemble import EnsembleDriver
from repro.faults import FaultModel, RecoveryPolicy
from repro.parallel import workers as workers_mod
from repro.parallel.workers import solve_plans
from repro.workflow.ensembles import make_ensemble
from repro.workflow.generators import montage
from repro.workflow.runtime_model import RuntimeModel


@pytest.fixture(scope="module")
def catalog():
    return ec2_catalog()


@pytest.fixture(scope="module")
def workflow():
    return montage(degrees=1.0, seed=7)


@pytest.fixture()
def simulator(catalog):
    return CloudSimulator(catalog, RngService(11), RuntimeModel(catalog))


def cheap_plan(workflow):
    return {tid: "m1.small" for tid in workflow.task_ids}


_run_replication_chunk = workers_mod.run_replication_chunk


def _chunk_or_die(payload):
    # Kills the worker handed run 4 -- but only inside a pool worker, so
    # the in-process rerun of its chunk completes.
    if 4 in payload[3] and multiprocessing.parent_process() is not None:
        os._exit(1)
    return _run_replication_chunk(payload)


def _live_children():
    return {proc.pid for proc in multiprocessing.active_children()}


class TestRunManyDeterminism:
    def test_bit_identical_across_worker_counts(self, simulator, workflow):
        plan = cheap_plan(workflow)
        serial = simulator.run_many(workflow, plan, 8, workers=1)
        parallel = simulator.run_many(workflow, plan, 8, workers=4)
        assert serial == parallel  # full trace equality, record by record

    def test_summaries_byte_identical(self, simulator, workflow):
        plan = cheap_plan(workflow)
        dumps = []
        for workers in (1, 4):
            results = simulator.run_many(workflow, plan, 8, workers=workers)
            dumps.append(json.dumps(simulator.summarize(results), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_failure_injection_identical(self, simulator, workflow):
        plan = cheap_plan(workflow)
        kwargs = dict(
            faults=FaultModel(task_failure_rate=0.1), recovery=RecoveryPolicy(max_retries=50)
        )
        serial = simulator.run_many(workflow, plan, 6, workers=1, **kwargs)
        parallel = simulator.run_many(workflow, plan, 6, workers=3, **kwargs)
        assert serial == parallel

    def test_consumed_parent_stream_does_not_leak(self, simulator, workflow):
        """Worker state is pristine even if the parent's RNG was used."""
        plan = cheap_plan(workflow)
        reference = simulator.run_many(workflow, plan, 4, workers=1)
        simulator.rngs.get("sim/unrelated").random(100)  # advance parent state
        assert simulator.run_many(workflow, plan, 4, workers=2) == reference

    def test_killed_worker_keeps_serial_results(self, simulator, workflow, monkeypatch):
        plan = cheap_plan(workflow)
        reference = simulator.run_many(workflow, plan, 8, workers=1)
        monkeypatch.setattr(workers_mod, "run_replication_chunk", _chunk_or_die)
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            results = simulator.run_many(workflow, plan, 8, workers=2)
        assert results == reference
        incidents = [w for w in captured if "died mid-job" in str(w.message)]
        assert len(incidents) == 1


class TestMemberPlansDeterminism:
    @pytest.fixture(scope="class")
    def driver(self, catalog):
        return EnsembleDriver(Deco(catalog, seed=7, num_samples=40, max_evaluations=150))

    @pytest.fixture(scope="class")
    def ensemble(self):
        return make_ensemble(
            "constant", montage, 4, sizes=(20,), seed=7
        ).with_constraints(
            budget=100.0, deadline_for=lambda m: 50_000.0, deadline_percentile=96.0
        )

    def test_byte_identical_across_worker_counts(self, driver, ensemble):
        dumps = []
        for workers in (1, 4):
            plans = driver.member_plans(ensemble, workers=workers)
            dumps.append(
                json.dumps(
                    {p: plan.decision_dict() for p, plan in plans.items()},
                    sort_keys=True,
                )
            )
        assert dumps[0] == dumps[1]

    def test_key_order_matches_priorities(self, driver, ensemble):
        plans = driver.member_plans(ensemble, workers=2)
        assert list(plans) == [m.priority for m in ensemble.by_priority()]

    def test_no_worker_outlives_the_call(self, driver, ensemble, simulator, workflow):
        before = _live_children()
        simulator.run_many(workflow, cheap_plan(workflow), 4, workers=2)
        driver.member_plans(ensemble, workers=2)
        assert _live_children() - before == set()


class TestWarmEngineMatchesFreshEngine:
    """The serial ``solve_plans`` reuses the caller's warm engine; a
    fanned-out one solves on cold engines rebuilt from ``Deco.spec()``.
    The two agree only while every solve is cache-transparent, and tier
    1's screening memo (``EvalContext.screen_problem``) is not: it keeps
    the deadline of the op that built it.  Tier 1 runs from
    ``num_samples >= 64``, so 60 samples isolates it as the one cause.
    """

    SWEEP = [(d, p) for d in ("tight", "medium", "loose") for p in (90.0, 99.0)]

    def _mismatched_keys(self, catalog, num_samples):
        wf = montage(degrees=1.0, seed=1)
        deco = Deco(catalog, seed=7, num_samples=num_samples, max_evaluations=400)
        warm = solve_plans(deco, [((d, p), wf, d, p) for d, p in self.SWEEP], workers=1)
        return [
            (d, p)
            for d, p in self.SWEEP
            if warm[(d, p)].decision_dict()
            != Deco.from_spec(deco.spec())
            .schedule(wf, d, deadline_percentile=p)
            .decision_dict()
        ]

    def test_matches_with_tier1_off(self, catalog):
        assert self._mismatched_keys(catalog, num_samples=60) == []

    def test_matches_with_tier0_on(self, catalog):
        """The same law where tier 0 runs (>= 256 tasks) and tier 1 does
        not: the warm engine's moment memo serves later ops without
        moving a plan."""
        wf = montage(degrees=4.5, seed=1)
        assert len(wf) >= 256
        deco = Deco(catalog, seed=7, num_samples=60, max_evaluations=300)
        hits = []
        for d, p in self.SWEEP:
            warm = deco.schedule(wf, d, deadline_percentile=p).decision_dict()
            hits.append(deco.last_result.analytic_hits)
            assert deco.last_result.analytic_evals > 0
            fresh = Deco.from_spec(deco.spec()).schedule(wf, d, deadline_percentile=p)
            assert warm == fresh.decision_dict(), (d, p)
        assert all(h > 0 for h in hits[1:]), hits

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: tier 1's stale screening memo moves warm plans",
    )
    def test_matches_with_tier1_on(self, catalog):
        assert self._mismatched_keys(catalog, num_samples=150) == []


class TestDecoSpecRoundTrip:
    def test_spec_rebuilds_equivalent_engine(self, catalog, workflow):
        deco = Deco(
            catalog, seed=3, backend="gpu", num_samples=50, max_evaluations=200
        )
        rebuilt = Deco.from_spec(deco.spec())
        assert rebuilt.spec() == deco.spec()
        a = deco.schedule(workflow, "medium")
        b = rebuilt.schedule(workflow, "medium")
        assert a.decision_dict() == b.decision_dict()


class TestBenchDriverDeterminism:
    def test_fig02_byte_identical_across_worker_counts(self):
        from repro.bench import BenchConfig
        from repro.bench.fig02 import fig02_runtime_variance

        dumps = []
        for workers in (1, 4):
            config = BenchConfig(
                seed=7, num_samples=30, max_evaluations=60,
                runs_per_plan=2, workers=workers,
            )
            rows = fig02_runtime_variance(config, degrees=(1.0,))
            dumps.append(json.dumps(rows, sort_keys=True))
        assert dumps[0] == dumps[1]


class TestRngPristine:
    def test_pristine_resets_stream_state(self):
        rngs = RngService(5)
        first = rngs.get("a/b").random(4).tolist()
        assert rngs.get("a/b").random(4).tolist() != first  # state advanced
        assert rngs.pristine().get("a/b").random(4).tolist() == first

    def test_pristine_preserves_prefix(self):
        rngs = RngService(5)
        child = rngs.child("cloud").child("io")
        expected = rngs.fresh("cloud/io/net").random(3).tolist()
        assert child.pristine().fresh("net").random(3).tolist() == expected

    def test_execution_result_record_fields(self, simulator, workflow):
        """ExecutionResult equality covers the full trace (guard against
        dataclass field drift silently weakening the determinism tests)."""
        result = simulator.run_many(workflow, cheap_plan(workflow), 1)[0]
        fields = {f.name for f in dataclasses.fields(result)}
        assert {"makespan", "cost", "task_records", "instance_records"} <= fields
