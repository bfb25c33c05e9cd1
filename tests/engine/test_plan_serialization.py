"""Tests for the workflow's graph view."""

from collections import deque

from repro.workflow.generators import montage


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
