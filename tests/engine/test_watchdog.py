"""Solve watchdog: wall-clock budgets return the best incumbent.

Acceptance contract (service robustness PR): an *ample* budget must not
perturb the search at all -- the plan is bit-identical to the unbounded
solve with ``timed_out=False`` -- while an *undersized* budget returns
a feasible incumbent early with ``timed_out=True`` instead of wedging.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.engine.deco import Deco
from repro.workflow.generators import montage

ENGINE_KW = dict(seed=7, num_samples=60, max_evaluations=150)


@pytest.fixture(scope="module")
def wf():
    return montage(degrees=1, seed=2)


@pytest.fixture(scope="module")
def unbounded(catalog, wf):
    with Deco(catalog, **ENGINE_KW) as deco:
        return deco.schedule(wf, "medium")


class TestAmpleBudget:
    def test_bit_identical_to_unbounded(self, catalog, wf, unbounded):
        with Deco(catalog, **ENGINE_KW) as deco:
            plan = deco.schedule(wf, "medium", solve_deadline_s=1e6)
        assert not plan.timed_out
        assert plan.decision_dict() == unbounded.decision_dict()


class TestUndersizedBudget:
    def test_returns_feasible_incumbent_flagged(self, catalog, wf):
        with Deco(catalog, **ENGINE_KW) as deco:
            plan = deco.schedule(wf, "medium", solve_deadline_s=1e-6)
        assert plan.timed_out
        # Degraded, not broken: a usable plan with honest numbers.
        assert plan.feasible
        assert plan.expected_cost > 0
        assert plan.assignment

    def test_timed_out_excluded_from_decision_identity(self, catalog, wf, unbounded):
        """decision_dict() compares *decisions*; the watchdog flag (like
        solve_seconds) is telemetry and must not break plan equality
        when a timed-out solve happens to land on the same incumbent."""
        with Deco(catalog, **ENGINE_KW) as deco:
            plan = deco.schedule(wf, "medium", solve_deadline_s=1e-6)
        assert "timed_out" not in plan.decision_dict()
        assert plan.timed_out is True
        assert unbounded.timed_out is False


class TestValidation:
    def test_schedule_rejects_nonpositive(self, catalog, wf):
        with Deco(catalog, **ENGINE_KW) as deco:
            with pytest.raises(ValidationError):
                deco.schedule(wf, "medium", solve_deadline_s=0)
