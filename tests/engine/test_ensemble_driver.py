"""Tests for ensemble admission (use case 2)."""

import pytest

from repro.common.errors import ValidationError
from repro.engine.deco import Deco
from repro.engine.ensemble import EnsembleDriver
from repro.workflow.ensembles import Ensemble, make_ensemble
from repro.workflow.generators import montage


@pytest.fixture(scope="module")
def driver(catalog):
    return EnsembleDriver(Deco(catalog, seed=3, num_samples=60, max_evaluations=300))


@pytest.fixture(scope="module")
def ensemble(catalog, driver):
    base = make_ensemble("uniform_unsorted", montage, 5, sizes=(20, 40), seed=5)
    deco = driver.deco

    def deadline_for(member):
        return deco.presets(member.workflow).medium

    return base.with_constraints(
        budget=float("1e18"), deadline_for=deadline_for, deadline_percentile=96.0
    )


@pytest.fixture(scope="module")
def plans(driver, ensemble):
    return driver.member_plans(ensemble)


class TestMemberPlans:
    def test_plan_per_member(self, plans, ensemble):
        assert set(plans) == {m.priority for m in ensemble.members}

    def test_plans_meet_member_deadlines(self, plans):
        assert all(p.feasible for p in plans.values())

    def test_members_without_deadlines_rejected(self, driver):
        # Not recorded as None per member: the caller forgot with_constraints.
        base = make_ensemble("constant", montage, 2, sizes=(20,), seed=5)
        with pytest.raises(ValidationError, match="no deadline"):
            driver.member_plans(base)


class TestDecide:
    def test_infinite_budget_rejected(self, driver, ensemble, plans):
        unbounded = Ensemble(ensemble.name, ensemble.members, budget=float("inf"))
        with pytest.raises(ValidationError):
            driver.decide(unbounded, plans=plans)

    def test_huge_budget_admits_everything(self, driver, ensemble, plans):
        ens = Ensemble(ensemble.name, ensemble.members, budget=1e9)
        decision = driver.decide(ens, plans=plans)
        assert decision.num_admitted == len(ensemble)
        assert decision.total_score == pytest.approx(ens.max_score())

    def test_budget_respected(self, driver, ensemble, plans):
        total = sum(p.expected_cost for p in plans.values())
        ens = Ensemble(ensemble.name, ensemble.members, budget=total / 2)
        decision = driver.decide(ens, plans=plans)
        assert decision.total_cost <= ens.budget + 1e-9

    def test_tiny_budget_admits_nothing_or_cheapest(self, driver, ensemble, plans):
        cheapest = min(p.expected_cost for p in plans.values())
        ens = Ensemble(ensemble.name, ensemble.members, budget=cheapest * 0.5)
        decision = driver.decide(ens, plans=plans)
        assert decision.num_admitted == 0

    def test_admission_is_score_optimal(self, driver, ensemble, plans):
        """Brute-force cross-check of the A* decision on 5 members."""
        import itertools

        costs = {p: plans[p].expected_cost for p in plans if plans[p].feasible}
        ens = Ensemble(
            ensemble.name, ensemble.members, budget=sum(costs.values()) * 0.6
        )
        decision = driver.decide(ens, plans=plans)
        best = 0.0
        for r in range(len(costs) + 1):
            for subset in itertools.combinations(costs, r):
                if sum(costs[p] for p in subset) <= ens.budget:
                    best = max(best, sum(2.0 ** (-p) for p in subset))
        assert decision.total_score == pytest.approx(best)

    def test_priority_zero_preferred(self, driver, ensemble, plans):
        """Score 2^0 beats all others combined; priority 0 is admitted
        whenever it fits alone."""
        cost0 = plans[0].expected_cost
        ens = Ensemble(ensemble.name, ensemble.members, budget=cost0 * 1.01)
        decision = driver.decide(ens, plans=plans)
        if plans[0].feasible:
            assert 0 in decision.admitted_priorities

    def test_outcomes_cover_all_members(self, driver, ensemble, plans):
        ens = Ensemble(ensemble.name, ensemble.members, budget=1.0)
        decision = driver.decide(ens, plans=plans)
        assert len(decision.outcomes) == len(ensemble)
        admitted = {o.member.priority for o in decision.outcomes if o.admitted}
        assert admitted == set(decision.admitted_priorities)


class TestRecordAndSkip:
    @pytest.fixture(scope="class")
    def driver(self, catalog):
        return EnsembleDriver(Deco(catalog, seed=3, num_samples=40, max_evaluations=150))

    @pytest.fixture(scope="class")
    def poisoned(self, driver):
        """An ensemble whose priority-1 member has a deadline ``schedule`` rejects."""
        base = make_ensemble("uniform_unsorted", montage, 3, sizes=(15, 25), seed=9)
        deco = driver.deco

        def deadline_for(member):
            if member.priority == 1:
                # Passes EnsembleMember's finite-and-positive check;
                # Deco.schedule raises ValidationError (a DecoError).
                return True
            return deco.presets(member.workflow).medium

        return base.with_constraints(
            budget=float("1e18"), deadline_for=deadline_for, deadline_percentile=96.0
        )

    def test_record_skips_failed_member(self, driver, poisoned):
        plans = driver.member_plans(poisoned, on_error="record")
        assert set(plans) == {0, 1, 2}
        assert plans[1] is None
        assert plans[0] is not None and plans[2] is not None

    def test_raise_propagates(self, driver, poisoned):
        from repro.common.errors import DecoError

        with pytest.raises(DecoError):
            driver.member_plans(poisoned, on_error="raise")

    def test_invalid_on_error_rejected(self, driver, poisoned):
        with pytest.raises(ValidationError):
            driver.member_plans(poisoned, on_error="explode")

    def test_failed_member_never_admitted_but_visible(self, driver, poisoned):
        plans = driver.member_plans(poisoned, on_error="record")
        ens = Ensemble(poisoned.name, poisoned.members, budget=1e9)
        decision = driver.decide(ens, plans=plans)
        assert 1 not in decision.admitted_priorities
        failed = next(o for o in decision.outcomes if o.member.priority == 1)
        assert failed.plan is None and not failed.admitted

    def test_record_identical_across_workers(self, driver, poisoned):
        serial = driver.member_plans(poisoned, workers=1, on_error="record")
        parallel = driver.member_plans(poisoned, workers=2, on_error="record")
        as_dict = lambda plans: {  # noqa: E731
            k: (p.decision_dict() if p is not None else None) for k, p in plans.items()
        }
        assert as_dict(serial) == as_dict(parallel)
