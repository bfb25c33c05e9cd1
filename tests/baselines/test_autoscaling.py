"""Tests for the Auto-scaling baseline."""

import pytest

from repro.baselines.autoscaling import autoscaling_plan, autoscaling_plan_calibrated
from repro.common.errors import ValidationError
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.workflow.critical_path import static_makespan
from repro.workflow.generators import montage, pipeline


class TestAutoscalingPlan:
    def test_full_assignment(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        plan = autoscaling_plan(wf, catalog, 3600.0, runtime_model)
        assert set(plan) == set(wf.task_ids)
        assert set(plan.values()) <= set(catalog.type_names)

    def test_loose_deadline_uses_cheap_types(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        plan = autoscaling_plan(wf, catalog, 1e9, runtime_model)
        assert set(plan.values()) == {"m1.small"}

    def test_impossible_deadline_uses_fastest(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        plan = autoscaling_plan(wf, catalog, 1e-3, runtime_model)
        assert set(plan.values()) == {catalog.fastest().name}

    def test_mean_makespan_tracks_deadline(self, catalog, runtime_model):
        """The plan's mean critical path should come in under the deadline
        for a chain (each task within its level sub-deadline)."""
        wf = pipeline(4, seed=0, runtime=600.0, data_mb=1000.0)
        serial_fastest = sum(
            runtime_model.mean(wf.task(t), catalog.fastest().name) for t in wf.task_ids
        )
        deadline = serial_fastest * 2.0
        plan = autoscaling_plan(wf, catalog, deadline, runtime_model)
        mk = static_makespan(
            wf, {t: runtime_model.mean(wf.task(t), plan[t]) for t in wf.task_ids}
        )
        assert mk <= deadline * 1.05

    def test_tighter_deadline_never_cheaper(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        presets_loose = autoscaling_plan(wf, catalog, 5000.0, runtime_model)
        presets_tight = autoscaling_plan(wf, catalog, 1000.0, runtime_model)
        price = {n: catalog.price(n) for n in catalog.type_names}
        loose_cost = sum(price[t] for t in presets_loose.values())
        tight_cost = sum(price[t] for t in presets_tight.values())
        assert tight_cost >= loose_cost

    def test_invalid_deadline_rejected(self, catalog, runtime_model):
        with pytest.raises(ValidationError):
            autoscaling_plan(montage(degrees=1, seed=0), catalog, 0.0, runtime_model)

    def test_empty_workflow(self, catalog, runtime_model):
        from repro.workflow.dag import Workflow

        assert autoscaling_plan(Workflow("e", []), catalog, 10.0, runtime_model) == {}


class TestCalibrated:
    def test_meets_probabilistic_requirement(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        from repro.engine.plan import deadline_presets

        d = deadline_presets(wf, catalog, runtime_model).medium
        plan = autoscaling_plan_calibrated(
            wf, catalog, d, 96.0, runtime_model, num_samples=100, seed=3
        )
        problem = CompiledProblem.compile(
            wf, catalog, d, 96.0, 100, seed=3, runtime_model=runtime_model
        )
        ev = VectorizedBackend().evaluate(problem, problem.state_from_assignment(plan))
        assert ev.feasible

    def test_saturates_on_impossible_deadline(self, catalog, runtime_model):
        wf = pipeline(3, seed=0, runtime=600.0)
        plan = autoscaling_plan_calibrated(
            wf, catalog, 1.0, 99.0, runtime_model, num_samples=30, seed=3
        )
        assert set(plan.values()) == {catalog.fastest().name}


@pytest.mark.parametrize("deadline", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("plan", [autoscaling_plan, autoscaling_plan_calibrated])
def test_deadline_must_be_finite_and_positive(catalog, runtime_model, plan, deadline):
    # A NaN deadline used to put every task on the fastest type.
    with pytest.raises(ValidationError, match="finite number > 0"):
        plan(montage(degrees=1, seed=0), catalog, deadline, runtime_model=runtime_model)
