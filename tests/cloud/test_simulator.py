"""Tests for the discrete-event cloud simulator."""

import numpy as np
import pytest

from repro.cloud.simulator import CloudSimulator
from repro.common.errors import ValidationError
from repro.common.rng import RngService
from repro.common.units import billed_hours
from repro.faults import FaultModel, RecoveryPolicy
from repro.workflow.generators import montage


@pytest.fixture()
def sim(catalog, runtime_model):
    return CloudSimulator(catalog, RngService(11), runtime_model)


def uniform_plan(wf, type_name):
    return {tid: type_name for tid in wf.task_ids}


class TestExecute:
    def test_all_tasks_complete(self, sim, diamond):
        result = sim.execute(diamond, uniform_plan(diamond, "m1.small"))
        assert len(result.task_records) == len(diamond)
        assert result.makespan > 0

    def test_dependencies_respected(self, sim, diamond):
        result = sim.execute(diamond, uniform_plan(diamond, "m1.small"))
        recs = {r.task_id: r for r in result.task_records}
        for parent, child in diamond.edges():
            assert recs[child].start >= recs[parent].finish - 1e-9

    def test_parallel_tasks_overlap(self, sim, diamond):
        result = sim.execute(diamond, uniform_plan(diamond, "m1.small"))
        recs = {r.task_id: r for r in result.task_records}
        # b and c are independent; with an elastic pool they overlap.
        assert recs["b"].start == pytest.approx(recs["c"].start)

    def test_assignments_honored(self, sim, diamond):
        plan = {"a": "m1.small", "b": "m1.xlarge", "c": "m1.small", "d": "m1.medium"}
        result = sim.execute(diamond, plan)
        for rec in result.task_records:
            assert rec.instance_type == plan[rec.task_id]

    def test_cost_is_billed_hours(self, sim, diamond, catalog):
        result = sim.execute(diamond, uniform_plan(diamond, "m1.small"))
        expected = sum(
            billed_hours(r.released - r.acquired) * catalog.price("m1.small")
            for r in result.instance_records
        )
        assert result.cost == pytest.approx(expected)

    def test_chain_reuses_one_instance(self, sim, chain3):
        result = sim.execute(chain3, uniform_plan(chain3, "m1.medium"))
        assert len(result.instance_records) == 1

    def test_regional_prices(self, sim, chain3):
        us = sim.execute(chain3, uniform_plan(chain3, "m1.small"), region="us-east-1")
        sg = sim.execute(chain3, uniform_plan(chain3, "m1.small"), region="ap-southeast-1")
        assert sg.cost > us.cost

    def test_missing_assignment_rejected(self, sim, diamond):
        with pytest.raises(ValidationError):
            sim.execute(diamond, {"a": "m1.small"})

    def test_unknown_type_rejected(self, sim, diamond):
        with pytest.raises(ValidationError):
            sim.execute(diamond, uniform_plan(diamond, "m9.mega"))

    def test_empty_workflow(self, sim):
        from repro.workflow.dag import Workflow

        result = sim.execute(Workflow("empty", []), {})
        assert result.makespan == 0.0
        assert result.cost == 0.0


class TestDynamics:
    def test_run_ids_give_different_realizations(self, sim, diamond):
        plan = uniform_plan(diamond, "m1.small")
        a = sim.execute(diamond, plan, run_id=0)
        b = sim.execute(diamond, plan, run_id=1)
        assert a.makespan != b.makespan

    def test_same_run_id_reproducible(self, catalog, runtime_model, diamond):
        plan = uniform_plan(diamond, "m1.small")
        a = CloudSimulator(catalog, RngService(7), runtime_model).execute(diamond, plan)
        b = CloudSimulator(catalog, RngService(7), runtime_model).execute(diamond, plan)
        assert a.makespan == b.makespan
        assert a.cost == b.cost

    def test_run_many_variance(self, sim):
        wf = montage(degrees=1, seed=0)
        results = sim.run_many(wf, uniform_plan(wf, "m1.small"), 10)
        makespans = [r.makespan for r in results]
        assert np.std(makespans) > 0

    def test_makespan_tracks_model_mean(self, sim, runtime_model, chain3):
        results = sim.run_many(chain3, uniform_plan(chain3, "m1.small"), 30)
        mean_mk = np.mean([r.makespan for r in results])
        expected = sum(runtime_model.mean(chain3.task(t), "m1.small") for t in chain3.task_ids)
        assert mean_mk == pytest.approx(expected, rel=0.1)


class TestSummarize:
    def test_summary_fields(self, sim, chain3):
        results = sim.run_many(chain3, uniform_plan(chain3, "m1.small"), 5)
        summary = sim.summarize(results)
        assert summary["p5_makespan"] <= summary["p50_makespan"] <= summary["p95_makespan"]
        assert summary["mean_cost"] > 0

    def test_summarize_empty_rejected(self, sim):
        with pytest.raises(ValidationError):
            sim.summarize([])

    def test_run_many_zero_rejected(self, sim, chain3):
        with pytest.raises(ValidationError):
            sim.run_many(chain3, uniform_plan(chain3, "m1.small"), 0)


def failing(rate, retries=3):
    return dict(
        faults=FaultModel(task_failure_rate=rate), recovery=RecoveryPolicy(max_retries=retries)
    )


class TestFailureInjection:
    def test_failures_lengthen_makespan(self, sim, diamond):
        plan = uniform_plan(diamond, "m1.small")
        clean = sim.execute(diamond, plan, run_id=3)
        faulty = sim.execute(diamond, plan, run_id=3, **failing(0.4, retries=20))
        assert faulty.makespan > clean.makespan

    def test_zero_rate_identical_to_default(self, sim, diamond):
        plan = uniform_plan(diamond, "m1.small")
        a = sim.execute(diamond, plan, run_id=4)
        b = sim.execute(diamond, plan, run_id=4, **failing(0.0))
        assert a.makespan == b.makespan

    def test_retry_exhaustion_raises(self, catalog, runtime_model, diamond):
        from repro.common.errors import CloudError
        from repro.common.rng import RngService

        sim = CloudSimulator(catalog, RngService(5), runtime_model)
        plan = uniform_plan(diamond, "m1.small")
        with pytest.raises(CloudError):
            # With a 90% failure rate and no retries allowed, some task
            # fails almost surely.
            sim.execute(diamond, plan, **failing(0.9, retries=0))

    def test_dependencies_hold_under_failures(self, sim, diamond):
        plan = uniform_plan(diamond, "m1.small")
        result = sim.execute(diamond, plan, run_id=5, **failing(0.3, retries=50))
        recs = {r.task_id: r for r in result.task_records}
        for parent, child in diamond.edges():
            assert recs[child].start >= recs[parent].finish - 1e-9

    def test_invalid_rate_rejected(self):
        # The fault surface validates itself, before any run starts.
        with pytest.raises(ValidationError):
            failing(1.0)
        with pytest.raises(ValidationError):
            failing(0.1, retries=-1)
