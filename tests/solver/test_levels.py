"""Tests for the level-parallel DAG layout (LevelSchedule).

The load-bearing property: the level kernel is *bit-identical* to both
a per-task propagation loop (``_reference_finish`` below) and the scalar
reference backend -- levels change iteration order, never arithmetic.
"""

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.levels import LevelSchedule
from repro.solver.state import PlanState
from repro.workflow.generators import random_dag


def _random_parents(n: int, seed: int, max_fanin: int = 5):
    """Random topological parent lists (parents always have lower index)."""
    rng = np.random.default_rng(seed)
    parents = []
    for i in range(n):
        k = int(rng.integers(0, min(i, max_fanin) + 1))
        parents.append(tuple(sorted(rng.choice(i, size=k, replace=False))) if k else ())
    return tuple(parents)


def _reference_finish(lanes: np.ndarray, parents) -> np.ndarray:
    """Straight-line finish-time recurrence, (M, N) lane-major."""
    finish = np.empty_like(lanes)
    for i, ps in enumerate(parents):
        ready = np.zeros(lanes.shape[0])
        for p in ps:
            ready = np.maximum(ready, finish[:, p])
        finish[:, i] = ready + lanes[:, i]
    return finish


def _propagate(sched: LevelSchedule, lanes: np.ndarray) -> np.ndarray:
    """Finish times for an ``(M, N)`` lane-major, original-order matrix.

    ``lanes[l, i]`` is the execution time of task ``i`` in lane ``l``;
    returns the ``(M, N)`` finish-time matrix in the same layout, through
    :meth:`LevelSchedule.propagate_permuted`.
    """
    lanes = np.asarray(lanes)
    permuted = np.ascontiguousarray(lanes.T).take(sched.order, axis=0)
    finish = sched.propagate_permuted(permuted)
    n = sched.num_tasks
    out = np.empty((n, lanes.shape[0]), dtype=finish.dtype)
    out[sched.order] = finish[:n]
    return np.ascontiguousarray(out.T)


class TestConstruction:
    def test_diamond_levels(self):
        sched = LevelSchedule.from_parent_indices(((), (0,), (0,), (1, 2)))
        assert sched.num_tasks == 4
        assert sched.num_levels == 3
        assert sched.level_bounds == ((0, 1), (1, 3), (3, 4))
        assert sched.max_width == 2
        # Stable permutation: topological numbering preserved per level.
        np.testing.assert_array_equal(sched.order, [0, 1, 2, 3])

    def test_parent_matrix_padding(self):
        sched = LevelSchedule.from_parent_indices(((), (0,), (0, 1)))
        assert sched.parent_matrix.shape == (3, 2)
        np.testing.assert_array_equal(
            sched.parent_matrix, [[-1, -1], [0, -1], [0, 1]]
        )

    def test_level_contiguous_permutation(self):
        # Task 1 depends on 2-deep chain; tasks 2, 3 are roots.
        parents = ((), (0,), (), ())
        sched = LevelSchedule.from_parent_indices(parents)
        assert sched.level_bounds == ((0, 3), (3, 4))
        np.testing.assert_array_equal(sched.order, [0, 2, 3, 1])

    def test_rejects_forward_edge(self):
        with pytest.raises(SolverError):
            LevelSchedule.from_parent_indices(((), (2,), (0,)))

    def test_rejects_self_edge(self):
        with pytest.raises(SolverError):
            LevelSchedule.from_parent_indices(((), (1,)))

    def test_big_fanin_uses_gather_path(self):
        n = 10
        parents = tuple(() for _ in range(n - 1)) + (tuple(range(n - 1)),)
        sched = LevelSchedule.from_parent_indices(parents)
        assert sched.level_columns[-1] is None  # fan-in 9 > column cutoff
        assert sched.level_parents[-1].shape == (1, n - 1)


class TestPropagation:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_reference_recurrence(self, n, seed):
        parents = _random_parents(n, seed)
        sched = LevelSchedule.from_parent_indices(parents)
        rng = np.random.default_rng(seed + 1000)
        lanes = rng.uniform(0.5, 50.0, size=(9, n))
        np.testing.assert_array_equal(
            _propagate(sched, lanes), _reference_finish(lanes, parents)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_taskloop_bitwise(self, seed):
        parents = _random_parents(30, seed, max_fanin=8)
        sched = LevelSchedule.from_parent_indices(parents)
        rng = np.random.default_rng(seed)
        lanes = rng.uniform(0.0, 100.0, size=(12, 30))
        np.testing.assert_array_equal(
            _propagate(sched, lanes), _reference_finish(lanes, parents)
        )

    def test_makespan_is_column_max(self):
        parents = _random_parents(15, 3)
        sched = LevelSchedule.from_parent_indices(parents)
        rng = np.random.default_rng(3)
        lanes = rng.uniform(1.0, 10.0, size=(4, 15))
        permuted = np.ascontiguousarray(lanes.T).take(sched.order, axis=0)
        np.testing.assert_array_equal(
            sched.makespan(permuted), _propagate(sched, lanes).max(axis=1)
        )

    def test_shape_mismatch_rejected(self):
        sched = LevelSchedule.from_parent_indices(((), (0,)))
        with pytest.raises(SolverError):
            sched.propagate_permuted(np.zeros((3, 5)))


class TestBackendEquivalence:
    """Property-style sweep: random DAGs across widths/depths/seeds."""

    @pytest.mark.parametrize(
        "num_tasks,edge_prob,seed",
        [
            (1, 0.0, 0),     # single task
            (6, 0.4, 1),     # small, dense
            (24, 0.05, 2),   # wide and shallow
            (24, 0.9, 3),    # narrow and deep (near-chain)
            (57, 0.15, 4),   # mid-size, mixed fan-in
        ],
    )
    def test_vectorized_matches_scalar_exactly(
        self, catalog, runtime_model, num_tasks, edge_prob, seed
    ):
        wf = random_dag(num_tasks, edge_prob=edge_prob, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=5e4, percentile=90.0, num_samples=12,
            seed=seed, runtime_model=runtime_model,
        )
        rng = np.random.default_rng(seed + 7)
        states = [
            PlanState(rng.integers(0, problem.num_types, num_tasks))
            for _ in range(5)
        ]
        level = VectorizedBackend().makespan_samples(problem, states)
        scalar = ScalarBackend()
        for i, st in enumerate(states):
            np.testing.assert_array_equal(
                level[i], scalar.makespan_samples(problem, [st])[0]
            )
