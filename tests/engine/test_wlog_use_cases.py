"""The declarative (WLog-interpreted) paths for use cases 2 and 3.

The library programs for ensemble admission and follow-the-cost are
executed through the Prolog engine here, and their decisions are
cross-checked against the compiled/direct drivers.
"""

import pytest

import repro.engine.followcost as fc
from repro.engine.deco import Deco
from repro.engine.ensemble import EnsembleDriver
from repro.engine.followcost import FollowCostDriver, WorkflowDeployment
from repro.workflow.ensembles import Ensemble, make_ensemble
from repro.workflow.generators import ligo, montage


@pytest.fixture(scope="module")
def driver(catalog):
    return EnsembleDriver(Deco(catalog, seed=13, num_samples=60, max_evaluations=300))


@pytest.fixture(scope="module")
def ensemble(driver):
    base = make_ensemble("uniform_unsorted", montage, 5, sizes=(20, 40), seed=13)
    deco = driver.deco
    return base.with_constraints(
        budget=1e18,
        deadline_for=lambda m: deco.presets(m.workflow).medium,
        deadline_percentile=96.0,
    )


@pytest.fixture(scope="module")
def plans(driver, ensemble):
    return driver.member_plans(ensemble)


class TestEnsembleViaWLog:
    def test_program_evaluates_subsets(self, driver, ensemble, plans):
        ens = Ensemble(ensemble.name, ensemble.members, budget=100.0)
        score, cost, admissible = driver.evaluate_admission_wlog(
            ens, plans, frozenset({0, 1})
        )
        assert score == pytest.approx(1.5)
        assert cost == pytest.approx(
            plans[0].expected_cost + plans[1].expected_cost, rel=1e-9
        )
        assert admissible

    def test_empty_subset(self, driver, ensemble, plans):
        ens = Ensemble(ensemble.name, ensemble.members, budget=1.0)
        score, cost, admissible = driver.evaluate_admission_wlog(ens, plans, frozenset())
        assert score == 0.0
        assert cost == 0.0
        assert admissible

    def test_budget_violation_detected(self, driver, ensemble, plans):
        total = sum(p.expected_cost for p in plans.values())
        ens = Ensemble(ensemble.name, ensemble.members, budget=total / 10)
        all_of_them = frozenset(p for p in plans)
        _, _, admissible = driver.evaluate_admission_wlog(ens, plans, all_of_them)
        assert not admissible

    def test_wlog_decision_matches_compiled(self, driver, ensemble, plans):
        total = sum(p.expected_cost for p in plans.values())
        for frac in (0.3, 0.6, 1.0):
            ens = Ensemble(ensemble.name, ensemble.members, budget=total * frac)
            compiled = driver.decide(ens, plans=plans)
            declarative = driver.decide_via_wlog(ens, plans=plans)
            assert declarative.total_score == pytest.approx(compiled.total_score)
            assert declarative.admitted_priorities == compiled.admitted_priorities

    def test_infeasible_members_never_admitted(self, driver, ensemble, plans):
        # Force one member infeasible by faking its plan.
        import dataclasses

        rigged = dict(plans)
        rigged[0] = dataclasses.replace(plans[0], feasible=False)
        ens = Ensemble(ensemble.name, ensemble.members, budget=1e6)
        decision = driver.decide_via_wlog(ens, plans=rigged)
        assert 0 not in decision.admitted_priorities


class TestFollowCostViaWLog:
    @pytest.fixture(scope="class")
    def fc_driver(self, driver):
        return FollowCostDriver(driver.deco, seed=3)

    def _state(self, catalog, runtime_model, region, slack=2.0, generator=ligo):
        wf = generator(num_tasks=40, seed=4) if generator is ligo else generator(degrees=1, seed=4)
        assignment = {t: "m1.medium" for t in wf.task_ids}
        serial = sum(runtime_model.mean(wf.task(t), "m1.medium") for t in wf.task_ids)
        dep = WorkflowDeployment(
            workflow=wf, assignment=assignment, region=region, deadline=serial * slack
        )
        return fc._RunState(deployment=dep, region=region)

    def test_wlog_matches_direct_argmin(self, fc_driver, catalog, runtime_model):
        for region in catalog.region_names:
            st = self._state(catalog, runtime_model, region)
            assert fc_driver.wlog_choose_region(st) == fc_driver._best_region(st)

    def test_expensive_region_migrates(self, fc_driver, catalog, runtime_model):
        st = self._state(catalog, runtime_model, "ap-southeast-1")
        assert fc_driver.wlog_choose_region(st) == "us-east-1"

    def test_cheap_region_stays(self, fc_driver, catalog, runtime_model):
        st = self._state(catalog, runtime_model, "us-east-1")
        assert fc_driver.wlog_choose_region(st) == "us-east-1"

    def test_deadline_blocks_migration(self, fc_driver, catalog, runtime_model):
        """With no slack left, the WLog 'ontime' constraint pins the
        workflow in place even when another region is cheaper."""
        st = self._state(catalog, runtime_model, "ap-southeast-1", slack=1.0)
        # Partway through with the clock nearly at the deadline.
        st.clock = st.deployment.deadline * 0.99
        assert fc_driver.wlog_choose_region(st) == "ap-southeast-1"

    def test_facts_shape(self, fc_driver, catalog, runtime_model):
        st = self._state(catalog, runtime_model, "us-east-1")
        rules = fc_driver.wlog_facts(st, chosen_region="us-east-1")
        indicators = {r.indicator for r in rules}
        assert ("wexeccost", 3) in indicators
        assert ("wmigcost", 3) in indicators
        assert ("wruntime", 3) in indicators
        assert ("wregion", 3) in indicators
