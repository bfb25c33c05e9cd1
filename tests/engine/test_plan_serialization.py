"""Tests for plan JSON serialization and the workflow's graph view."""

from collections import deque

import pytest

from repro.common.errors import ValidationError
from repro.engine.plan import ProvisioningPlan
from repro.workflow.generators import montage


def make_plan():
    return ProvisioningPlan(
        workflow_name="montage-1",
        assignment={"ID0": "m1.small", "ID1": "m1.large"},
        expected_cost=0.123,
        probability=0.97,
        feasible=True,
        deadline=3600.0,
        deadline_percentile=96.0,
        evaluations=500,
        solve_seconds=0.25,
        backend="gpu",
    )


class TestPlanJson:
    def test_roundtrip(self):
        plan = make_plan()
        back = ProvisioningPlan.from_json(plan.to_json())
        assert back == plan

    def test_json_is_stable(self):
        plan = make_plan()
        assert plan.to_json() == plan.to_json()

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            ProvisioningPlan.from_json('{"workflow_name": "x"}')

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            ProvisioningPlan.from_json("[1, 2]")

    def test_assignment_survives(self):
        back = ProvisioningPlan.from_json(make_plan().to_json())
        assert back.assignment["ID1"] == "m1.large"


class TestNetworkxExport:
    """The graph a workflow exposes (tasks + edges), checked without networkx."""

    def test_topological_sort_agrees(self):
        wf = montage(degrees=1, seed=0)
        indegree = {t: 0 for t in wf.task_ids}
        children = {t: [] for t in wf.task_ids}
        for parent, child in wf.edges():
            indegree[child] += 1
            children[parent].append(child)
        ready = deque(t for t, d in indegree.items() if d == 0)
        kahn = []
        while ready:
            t = ready.popleft()
            kahn.append(t)
            for c in children[t]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
        assert len(kahn) == len(wf)
        order = {t: i for i, t in enumerate(kahn)}
        for parent, child in wf.edges():
            assert order[parent] < order[child]
