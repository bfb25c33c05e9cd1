"""The array kernels of candidate generation against their scalar originals.

``repro.solver.expand`` (batched critical paths and child lists) and
``autoscaling_plan`` (broadcast compare + argmax) replaced per-task
Python loops.  The loops
live on here, verbatim, as the references: the kernels must reproduce
them tie for tie and bit for bit, because the search trajectory -- and
so every plan -- is a function of their output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.autoscaling import autoscaling_plan
from repro.common.errors import ValidationError
from repro.engine.plan import deadline_presets
from repro.solver.backends import CompiledProblem
from repro.solver.expand import critical_paths, expand_batch
from repro.solver.levels import workflow_layout
from repro.solver.state import PlanState, StateEval
from repro.workflow.critical_path import critical_path, task_levels
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, pipeline
from repro.workflow.runtime_model import RuntimeModel

LADDER = (1.0, 0.92, 0.85, 0.78, 0.7, 0.6, 0.5, 0.4)


# ---------------------------------------------------------------------------
# Scalar references (the code the kernels replaced)
# ---------------------------------------------------------------------------


def critical_indices_ref(parent_indices, task_times) -> list[int]:
    times = task_times.tolist()
    n = len(times)
    if not n:
        return []
    finish = [0.0] * n
    best = [-1] * n
    for i, parents in enumerate(parent_indices):
        if parents:
            bp = parents[0]
            bf = finish[bp]
            for p in parents[1:]:
                f = finish[p]
                if f > bf:
                    bf = f
                    bp = p
            finish[i] = bf + times[i]
            best[i] = bp
        else:
            finish[i] = times[i]
    end = max(range(n), key=finish.__getitem__)
    path: list[int] = []
    cur = end
    while cur >= 0:
        path.append(cur)
        cur = best[cur]
    path.reverse()
    return path


def children_ref(problem, state, ev, best, children_per_state):
    n = problem.num_tasks
    idx = np.arange(n)
    mean_now = problem.mean_times[state.assignment, idx]
    cp_idx = critical_indices_ref(problem.parent_indices, mean_now)
    cp_set = set(cp_idx)
    children: list[PlanState] = []

    if not ev.feasible:
        order = sorted(cp_idx, key=lambda i: -mean_now[i])
        off = sorted((i for i in range(n) if i not in cp_set), key=lambda i: -mean_now[i])
        for i in order[:children_per_state] + off[: max(2, children_per_state // 4)]:
            child = state.promote(i, problem.num_types)
            if child is not None:
                children.append(child)
        return children

    cost_now = problem.mean_times[state.assignment, idx] * problem.prices[state.assignment]
    demote_saving = np.full(n, -np.inf)
    for i in range(n):
        t = int(state.assignment[i])
        if t > 0:
            demote_saving[i] = cost_now[i] - (
                problem.mean_times[t - 1, i] * problem.prices[t - 1]
            )
    off_order = sorted(
        (i for i in range(n) if i not in cp_set and demote_saving[i] > 0),
        key=lambda i: -demote_saving[i],
    )
    on_order = sorted(
        (i for i in cp_idx if demote_saving[i] > 0), key=lambda i: -demote_saving[i]
    )
    half = max(1, children_per_state // 2)
    for i in off_order[:half] + on_order[:half]:
        child = state.demote(i)
        if child is not None:
            children.append(child)
    if cp_idx:
        i = max(cp_idx, key=lambda j: mean_now[j])
        child = state.promote(i, problem.num_types)
        if child is not None and (best is None or not best.feasible):
            children.append(child)
    return children


def autoscaling_ref(workflow, catalog, deadline, model) -> dict[str, str]:
    levels = task_levels(workflow)
    num_levels = max(levels.values(), default=-1) + 1
    if num_levels == 0:
        return {}
    fastest = catalog.fastest().name
    floor = [0.0] * num_levels
    for tid in workflow.task_ids:
        t = model.mean(workflow.task(tid), fastest)
        if t > floor[levels[tid]]:
            floor[levels[tid]] = t
    total_floor = sum(floor) or 1.0
    level_deadline = [deadline * f / total_floor for f in floor]
    for lv in range(num_levels):
        if level_deadline[lv] <= 0:
            level_deadline[lv] = deadline / num_levels
    plan: dict[str, str] = {}
    for tid in workflow.task_ids:
        chosen = fastest
        for name in catalog.type_names:
            if model.mean(workflow.task(tid), name) <= level_deadline[levels[tid]]:
                chosen = name
                break
        plan[tid] = chosen
    return plan


# ---------------------------------------------------------------------------
# Random DAGs
# ---------------------------------------------------------------------------


@st.composite
def dags(draw, max_tasks: int = 14):
    """A workflow whose edges arrive in a drawn order, so parent lists are
    not sorted by index and the first-tie rule has something to decide."""
    n = draw(st.integers(1, max_tasks))
    edges = [
        (f"t{i:02d}", f"t{j:02d}")
        for j in range(1, n)
        for i in draw(st.sets(st.integers(0, j - 1), max_size=7))
    ]
    edges = draw(st.permutations(edges))
    return Workflow("drawn", [Task(task_id=f"t{i:02d}") for i in range(n)], edges)


def _fan_in(width: int) -> Workflow:
    """``width`` roots into one join into one tail: fan-in above the
    schedule's column-gather limit of 4."""
    roots = [f"r{i:02d}" for i in range(width)]
    tasks = [Task(task_id=t) for t in (*roots, "join", "tail")]
    edges = [(r, "join") for r in reversed(roots)] + [("join", "tail")]
    return Workflow("fan-in", tasks, edges)


def _assert_paths_match(workflow: Workflow, times: np.ndarray) -> None:
    """Every lane's batched path and length equal ``critical_path``'s."""
    parents, levels = workflow_layout(workflow)
    paths, lengths = critical_paths(levels, times)
    assert paths.shape == (len(times), levels.num_levels)
    for lane, row in enumerate(times):
        by_id = dict(zip(workflow.task_ids, row.tolist()))
        want_path, want_length = critical_path(workflow, by_id)
        got = [workflow.task_ids[i] for i in paths[lane] if i >= 0]
        assert tuple(got) == want_path
        assert lengths[lane] == want_length
        assert got == [workflow.task_ids[i] for i in critical_indices_ref(parents, row)]


class TestCriticalPaths:
    @given(dags(), st.sampled_from([1, 8]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_on_tie_heavy_times(self, workflow, lanes, data):
        # Integer-valued times from a tiny range (zero included): most
        # sibling finishes tie, and zero-time chains tie with the padding.
        times = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=len(workflow), max_size=len(workflow)),
                    min_size=lanes,
                    max_size=lanes,
                )
            ),
            dtype=float,
        )
        _assert_paths_match(workflow, times)

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_single_task(self, lanes):
        workflow = Workflow("one", [Task(task_id="only")])
        _assert_paths_match(workflow, np.arange(lanes, dtype=float)[:, None])

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_wide_fan_in_all_tied(self, lanes):
        workflow = _fan_in(9)
        _assert_paths_match(workflow, np.ones((lanes, len(workflow))))
        _assert_paths_match(workflow, np.zeros((lanes, len(workflow))))

    def test_wide_fan_in_random(self, rng):
        workflow = _fan_in(9)
        _assert_paths_match(workflow, rng.integers(0, 3, (8, len(workflow))).astype(float))

    def test_empty_dag(self):
        _, levels = workflow_layout(Workflow("none", []))
        paths, lengths = critical_paths(levels, np.empty((3, 0)))
        assert paths.shape == (3, 0) and lengths.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# Child lists
# ---------------------------------------------------------------------------


def _synthetic_problem(workflow: Workflow, catalog, rng, num_samples: int = 6) -> CompiledProblem:
    """A problem over ``workflow`` with small-integer (tie-heavy) numbers."""
    parents, levels = workflow_layout(workflow)
    k, n = len(catalog), len(workflow)
    # Faster types are never slower, many cells equal, some zero.
    mean = np.sort(rng.integers(0, 4, (k, n)).astype(float), axis=0)[::-1].copy()
    spread = rng.integers(0, 2, (k, num_samples, n)).astype(float)
    return CompiledProblem(
        workflow=workflow,
        catalog=catalog,
        mean_times=mean,
        tensor=mean[:, None, :] + spread,
        prices=np.array([1.0, 2.0, 4.0, 8.0][:k]),
        parent_indices=parents,
        deadline=10.0,
        required_probability=0.9,
        levels=levels,
    )


def _eval(feasible: bool) -> StateEval:
    return StateEval(
        cost=1.0, probability=1.0 if feasible else 0.0, feasible=feasible,
        mean_makespan=1.0,
    )


def _assert_children_match(problem, parents, incumbent_feasible, cps=12):
    best = _eval(incumbent_feasible)
    got = expand_batch(problem, parents, incumbent_feasible, cps)
    assert len(got) == len(parents)
    for (state, ev), kids in zip(parents, got):
        want = children_ref(problem, state, ev, best, cps)
        assert [c.key for c in kids] == [c.key for c in want]
        for child in kids:
            assert child.parent_key == state.key
            (task,) = child.dirty
            assert np.flatnonzero(child.assignment != state.assignment).tolist() == [task]


class TestChildLists:
    @given(dags(max_tasks=10), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_on_drawn_dags(self, catalog, workflow, seed, incumbent):
        rng = np.random.default_rng(seed)
        problem = _synthetic_problem(workflow, catalog, rng)
        n, k = problem.num_tasks, problem.num_types
        states = [PlanState(rng.integers(0, k, n)) for _ in range(5)]
        states += [PlanState.uniform(n, 0), PlanState.uniform(n, k - 1), states[0]]
        parents = [(s, _eval(bool(rng.integers(2)))) for s in states]
        _assert_children_match(problem, parents, incumbent, cps=int(rng.integers(1, 13)))
        _assert_children_match(problem, parents[:1], incumbent)

    @pytest.mark.parametrize(
        "make",
        [lambda: montage(degrees=1.0, seed=3), lambda: ligo(40, seed=1),
         lambda: epigenomics(40, seed=2), lambda: pipeline(6, seed=1)],
        ids=["montage", "ligo", "epigenomics", "pipeline"],
    )
    def test_matches_scalar_on_generated_workflows(self, catalog, rng, make):
        workflow = make()
        problem = CompiledProblem.compile(
            workflow, catalog, deadline=deadline_presets(workflow, catalog).medium,
            percentile=90.0, num_samples=32, seed=5,
        )
        n, k = problem.num_tasks, problem.num_types
        states = [PlanState(rng.integers(0, k, n)) for _ in range(6)]
        states += [PlanState.uniform(n, 0), PlanState.uniform(n, k - 1)]
        parents = [(s, _eval(i % 2 == 0)) for i, s in enumerate(states)]
        parents += [(s, _eval(i % 2 == 1)) for i, s in enumerate(states)]
        for incumbent in (False, True):
            _assert_children_match(problem, parents, incumbent)

    def test_no_parents_no_children(self, catalog, rng):
        problem = _synthetic_problem(_fan_in(5), catalog, rng)
        assert expand_batch(problem, [], True, 12) == []


# ---------------------------------------------------------------------------
# The warm-start ladder
# ---------------------------------------------------------------------------


FAMILIES = {
    "montage": lambda: montage(degrees=1.0, seed=2),
    "ligo": lambda: ligo(60, seed=2),
    "epigenomics": lambda: epigenomics(60, seed=2),
    "cybershake": lambda: cybershake(60, seed=2),
    "pipeline": lambda: pipeline(7, seed=2),
}


class TestLadder:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_scalar_on_every_rung(self, catalog, family):
        workflow = FAMILIES[family]()
        model = RuntimeModel(catalog)
        presets = deadline_presets(workflow, catalog, model)
        for deadline in (presets.tight, presets.medium, presets.loose):
            for factor in LADDER:
                got = autoscaling_plan(workflow, catalog, deadline * factor, model)
                want = autoscaling_ref(workflow, catalog, deadline * factor, RuntimeModel(catalog))
                assert got == want
                assert list(got) == list(want)  # task order too

    def test_empty_workflow(self, catalog):
        assert autoscaling_plan(Workflow("none", []), catalog, 10.0) == {}

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_non_positive_deadline_raises(self, catalog, diamond, deadline):
        with pytest.raises(ValidationError):
            autoscaling_plan(diamond, catalog, deadline)

    def test_all_zero_level_gets_the_even_share(self, catalog, chain3):
        free = Task(task_id="free", runtime_ref=0.0)
        tasks = [chain3.task(t) for t in chain3.task_ids] + [free]
        workflow = Workflow("zero-level", tasks, [*chain3.edges(), ("t2", "free")])
        model = RuntimeModel(catalog)
        assert model.mean(free, catalog.fastest().name) == 0.0
        for deadline in (1.0, 500.0, 5000.0):
            got = autoscaling_plan(workflow, catalog, deadline, model)
            assert got == autoscaling_ref(workflow, catalog, deadline, model)
            # A zero-time task fits its (positive) even share on the cheapest type.
            assert got["free"] == catalog.cheapest().name

    def test_nothing_fits_falls_back_to_fastest(self, catalog, diamond):
        got = autoscaling_plan(diamond, catalog, 1e-6)
        assert set(got.values()) == {catalog.fastest().name}
        assert got == autoscaling_ref(diamond, catalog, 1e-6, RuntimeModel(catalog))
