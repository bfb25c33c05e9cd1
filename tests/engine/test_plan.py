"""Tests for provisioning plans and deadline presets."""

import pytest

from repro.common.errors import ValidationError
from repro.engine.plan import DeadlinePresets, ProvisioningPlan, deadline_presets
from repro.workflow.critical_path import static_makespan
from repro.workflow.dag import Workflow
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, pipeline
from repro.workflow.runtime_model import RuntimeModel


class TestProvisioningPlan:
    def _plan(self, **overrides):
        kwargs = dict(
            workflow_name="wf",
            assignment={"a": "m1.small", "b": "m1.large", "c": "m1.small"},
            expected_cost=1.5,
            probability=0.97,
            feasible=True,
            deadline=100.0,
            deadline_percentile=96.0,
            solve_seconds=0.3,
        )
        kwargs.update(overrides)
        return ProvisioningPlan(**kwargs)

    def test_type_counts(self):
        assert self._plan().type_counts() == {"m1.large": 1, "m1.small": 2}

    def test_overhead_per_task(self):
        assert self._plan().overhead_ms_per_task() == pytest.approx(100.0)

    def test_overhead_empty_plan(self):
        assert self._plan(assignment={}).overhead_ms_per_task() == 0.0

    def test_assignment_copied(self):
        src = {"a": "m1.small"}
        plan = self._plan(assignment=src)
        src["a"] = "m1.xlarge"
        assert plan.assignment["a"] == "m1.small"


class TestDeadlinePresets:
    def test_ordering(self):
        p = DeadlinePresets(dmin=100.0, dmax=1000.0)
        assert p.tight == 150.0
        assert p.medium == 550.0
        assert p.loose == 750.0
        assert p.tight < p.medium < p.loose

    def test_get(self):
        p = DeadlinePresets(dmin=100.0, dmax=1000.0)
        assert p.get("tight") == p.tight
        with pytest.raises(ValidationError):
            p.get("impossible")

    def test_computed_from_workflow(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=0)
        p = deadline_presets(wf, catalog, runtime_model)
        assert 0 < p.dmin < p.dmax
        # Dmin is the fastest type's critical path; it must beat Dmax.
        assert p.tight < p.loose

    @pytest.mark.parametrize(
        "workflow",
        [montage(degrees=1, seed=3), ligo(60, seed=3), epigenomics(60, seed=3),
         cybershake(60, seed=3), pipeline(6, seed=3)],
        ids=["montage", "ligo", "epigenomics", "cybershake", "pipeline"],
    )
    def test_level_pass_is_bit_equal_to_the_scalar_critical_path(self, catalog, workflow):
        """Dmin/Dmax used to be two dict-based critical paths over 2 x N
        ``model.mean`` calls; the level forward pass returns the same floats."""
        model = RuntimeModel(catalog)

        def scalar(type_name):
            return static_makespan(
                workflow, {t: model.mean(workflow.task(t), type_name) for t in workflow.task_ids}
            )

        dmin, dmax = scalar(catalog.fastest().name), scalar(catalog.cheapest().name)
        got = deadline_presets(workflow, catalog, RuntimeModel(catalog))
        assert (got.dmin, got.dmax) == (min(dmin, dmax), max(dmin, dmax))
        assert type(got.dmin) is float and type(got.dmax) is float

    def test_empty_workflow(self, catalog):
        assert deadline_presets(Workflow("none", []), catalog) == DeadlinePresets(0.0, 0.0)
