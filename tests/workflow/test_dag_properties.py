"""Property-based tests (hypothesis) for DAG/makespan invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.critical_path import (
    critical_path,
    makespan_samples,
    static_makespan,
    task_levels,
)
from repro.workflow.generators import random_dag


@st.composite
def dags(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_dag(n, edge_prob=p, seed=seed)


@given(dags())
def test_topological_order_is_consistent(wf):
    pos = {tid: i for i, tid in enumerate(wf.task_ids)}
    for parent, child in wf.edges():
        assert pos[parent] < pos[child]


@given(dags())
def test_roots_have_no_parents_leaves_no_children(wf):
    for r in wf.roots():
        assert wf.parents(r) == ()
    for l in wf.leaves():
        assert wf.children(l) == ()


@given(dags())
def test_levels_increase_along_edges(wf):
    levels = task_levels(wf)
    for parent, child in wf.edges():
        assert levels[child] > levels[parent]


@given(dags(), st.integers(min_value=0, max_value=1000))
def test_critical_path_is_valid_path(wf, seed):
    rng = np.random.default_rng(seed)
    times = {tid: float(rng.uniform(0.1, 10)) for tid in wf.task_ids}
    path, length = critical_path(wf, times)
    assert path[0] in wf.roots()
    assert path[-1] in wf.leaves()
    for a, b in zip(path, path[1:]):
        assert b in wf.children(a)
    assert np.isclose(length, sum(times[t] for t in path))


@given(dags(), st.integers(min_value=0, max_value=1000))
def test_critical_path_dominates_all_task_times(wf, seed):
    rng = np.random.default_rng(seed)
    times = {tid: float(rng.uniform(0.1, 10)) for tid in wf.task_ids}
    mk = static_makespan(wf, times)
    assert mk >= max(times.values()) - 1e-12
    assert mk <= sum(times.values()) + 1e-12


@given(dags(), st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_vectorized_matches_scalar_reference(wf, seed):
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.1, 10, size=(4, len(wf)))
    mk = makespan_samples(wf, samples)
    for s in range(4):
        times = {tid: samples[s, wf.index_of(tid)] for tid in wf.task_ids}
        assert np.isclose(mk[s], static_makespan(wf, times))


@given(dags(), st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_makespan_monotone_in_task_times(wf, seed):
    """Increasing any task's time never decreases the makespan."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.1, 10, size=(1, len(wf)))
    bumped = base.copy()
    idx = int(rng.integers(0, len(wf)))
    bumped[0, idx] += 5.0
    assert makespan_samples(wf, bumped)[0] >= makespan_samples(wf, base)[0] - 1e-12

