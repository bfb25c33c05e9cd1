"""Tests for the follow-the-cost driver (use case 3)."""

import numpy as np
import pytest

from repro.cloud import ec2_catalog
from repro.common.errors import ValidationError
from repro.engine.deco import Deco
from repro.engine.followcost import FollowCostDriver, WorkflowDeployment, _RunState
from repro.workflow.dag import Workflow
from repro.workflow.generators import ligo, montage


@pytest.fixture(scope="module")
def deco(catalog):
    return Deco(catalog, num_samples=100, max_evaluations=600)


@pytest.fixture(scope="module")
def driver(deco):
    return FollowCostDriver(deco, seed=2, period=900.0)


def make_deployment(catalog, runtime_model, region, generator=ligo, size=40, seed=0,
                    type_name="m1.medium", slack=2.0):
    wf = generator(num_tasks=size, seed=seed) if generator is ligo else generator(degrees=1, seed=seed)
    assignment = {tid: type_name for tid in wf.task_ids}
    serial = sum(runtime_model.mean(wf.task(t), type_name) for t in wf.task_ids)
    return WorkflowDeployment(
        workflow=wf, assignment=assignment, region=region, deadline=serial * slack
    )


class TestDeployment:
    def test_missing_assignment_rejected(self, catalog):
        wf = ligo(20, seed=0)
        with pytest.raises(ValidationError):
            WorkflowDeployment(workflow=wf, assignment={}, region="us-east-1", deadline=10.0)

    def test_bad_deadline_rejected(self, catalog, runtime_model):
        wf = ligo(20, seed=0)
        with pytest.raises(ValidationError):
            WorkflowDeployment(
                workflow=wf,
                assignment={t: "m1.small" for t in wf.task_ids},
                region="us-east-1",
                deadline=0.0,
            )


class TestPolicies:
    @pytest.fixture(scope="class")
    def fleet(self, catalog, runtime_model):
        return [
            make_deployment(catalog, runtime_model, "ap-southeast-1", seed=1),
            make_deployment(catalog, runtime_model, "us-east-1", seed=2),
        ]

    def test_all_policies_complete(self, driver, fleet):
        for policy in ("deco", "heuristic", "static"):
            result = driver.run(fleet, policy=policy)
            assert all(m > 0 for m in result.makespans)
            assert result.total_cost > 0

    def test_static_never_migrates(self, driver, fleet):
        assert driver.run(fleet, policy="static").num_migrations == 0

    def test_migration_exploits_price_difference(self, driver, fleet):
        """CPU-bound Ligo in Singapore should move to the cheaper US East."""
        result = driver.run(fleet, policy="deco")
        assert result.num_migrations >= 1

    def test_deco_not_worse_than_static(self, driver, fleet):
        deco = driver.run(fleet, policy="deco")
        static = driver.run(fleet, policy="static")
        assert deco.total_cost <= static.total_cost * 1.02

    def test_costs_decompose(self, driver, fleet):
        result = driver.run(fleet, policy="deco")
        assert result.total_cost == pytest.approx(result.exec_cost + result.migration_cost)

    def test_unknown_policy_rejected(self, driver, fleet):
        with pytest.raises(ValidationError):
            driver.run(fleet, policy="oracle")

    def test_bad_threshold_rejected(self, driver, fleet):
        with pytest.raises(ValidationError):
            driver.run(fleet, policy="heuristic", threshold=0.0)

    def test_reproducible(self, deco, fleet):
        a = FollowCostDriver(deco, seed=5).run(fleet)
        b = FollowCostDriver(deco, seed=5).run(fleet)
        assert a.total_cost == b.total_cost


class TestTypeAdaptation:
    def test_loose_deadline_enables_demotion(self, catalog, runtime_model, driver):
        """An I/O-bound Montage fleet on pricey types with huge slack:
        Deco's runtime type re-optimization must cut cost below static."""
        dep = make_deployment(
            catalog, runtime_model, "us-east-1", generator=montage,
            type_name="m1.xlarge", slack=4.0,
        )
        deco = driver.run([dep], policy="deco")
        static = driver.run([dep], policy="static")
        assert deco.exec_cost < static.exec_cost * 0.9

    def test_deadline_still_met_after_adaptation(self, catalog, runtime_model, driver):
        dep = make_deployment(
            catalog, runtime_model, "us-east-1", generator=montage,
            type_name="m1.xlarge", slack=4.0,
        )
        result = driver.run([dep], policy="deco")
        assert result.deadlines_met == 1


class TestOneSolver:
    """A deco re-plan is the solver's plan for what is left, applied as returned."""

    @staticmethod
    def solver_plan(deco, st):
        """``Deco.schedule`` of the pending chain on a cold engine of the
        same spec, pricing in the workflow's region."""
        wf = st.deployment.workflow
        pending = wf.task_ids[st.next_index :]
        chain = Workflow("rest", [wf.task(t) for t in pending], zip(pending, pending[1:]))
        engine = Deco.from_spec({**deco.spec(), "catalog": ec2_catalog(default_region=st.region)})
        return engine.schedule(chain, st.deployment.deadline - st.clock).assignment

    @pytest.mark.parametrize("region", ["us-east-1", "ap-southeast-1"])
    @pytest.mark.parametrize("generator", [ligo, montage])
    def test_submission_replan_is_the_solvers_plan(
        self, catalog, runtime_model, deco, driver, region, generator
    ):
        dep = make_deployment(catalog, runtime_model, region, generator=generator, seed=3)
        st = _RunState(deployment=dep, region=dep.region)
        driver._deco_reoptimize(st, np.random.default_rng(0), charge=False)
        assert st.assignment == self.solver_plan(deco, st)

    @pytest.mark.parametrize("slack", [1.2, 2.0])
    def test_midrun_replan_is_the_solvers_plan(
        self, catalog, runtime_model, deco, driver, slack
    ):
        """A quarter of the way in, Montage's frontier data keeps it in the
        dearer region, and the residual is due in what is left of the deadline."""
        dep = make_deployment(
            catalog, runtime_model, "ap-southeast-1", generator=montage, slack=slack
        )
        st = _RunState(deployment=dep, region=dep.region)
        rng = np.random.default_rng(0)
        driver._advance_until(st, dep.deadline / 4, rng)
        done = {t: st.assignment[t] for t in dep.workflow.task_ids[: st.next_index]}
        driver._deco_reoptimize(st, rng, charge=False)
        assert 0 < st.next_index < len(dep.workflow) and st.region == "ap-southeast-1"
        assert st.assignment == {**done, **self.solver_plan(deco, st)}

    def test_no_slack_keeps_the_assignment(self, catalog, runtime_model, driver):
        dep = make_deployment(catalog, runtime_model, "us-east-1")
        st = _RunState(deployment=dep, region=dep.region, clock=dep.deadline)
        driver._deco_reoptimize(st, np.random.default_rng(0), charge=False)
        assert st.assignment == dep.assignment


class TestValidation:
    def test_bad_period_rejected(self, deco):
        with pytest.raises(ValidationError):
            FollowCostDriver(deco, period=0.0)
