"""Tests for the level-parallel DAG layout (LevelSchedule).

The load-bearing property: the level kernel is *bit-identical* to both
a per-task propagation loop (``_reference_finish`` below) and the scalar
reference backend -- levels change iteration order, never arithmetic.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.engine.compiler import (
    export_problem_arrays,
    problem_fingerprint,
    problem_from_segment,
)
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.cache import ScratchPool
from repro.solver.levels import LevelSchedule, MaxJoin, WideRead, workflow_layout
from repro.solver.state import PlanState
from repro.workflow.critical_path import static_makespan
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, random_dag


def _random_parents(n: int, seed: int, max_fanin: int = 5):
    """Random topological parent lists (parents always have lower index)."""
    rng = np.random.default_rng(seed)
    parents = []
    for i in range(n):
        k = int(rng.integers(0, min(i, max_fanin) + 1))
        parents.append(tuple(sorted(rng.choice(i, size=k, replace=False))) if k else ())
    return tuple(parents)


def _assert_same_value(got, want) -> None:
    """Equal type, shape, dtype and contents, through nested tuples."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_value(a, b)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


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
    :meth:`LevelSchedule.propagate`.
    """
    lanes = np.asarray(lanes)
    n = sched.num_tasks
    finish = np.zeros((n + 1, lanes.shape[0]), dtype=lanes.dtype)
    finish[:n] = lanes.T[sched.order]
    sched.propagate(finish, MaxJoin(ScratchPool(), finish, sched.max_width))
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
        read = sched.level_reads[-1]
        assert isinstance(read, WideRead)  # fan-in 9 > column cutoff
        assert read.gather.shape == (1, n - 1)


class TestReadPlan:
    """``level_reads``: the shipped generators' joins and chain links read
    their parents as slot ranges (views of the finish matrix), not gathers."""

    @pytest.mark.parametrize(
        "workflow", [montage(degrees=8.0, seed=3), cybershake(300, seed=0)],
        ids=["montage-8", "cybershake-300"],
    )
    def test_wide_levels_are_blocks(self, workflow):
        _, sched = workflow_layout(workflow)
        wide = [lv for lv, read in enumerate(sched.level_reads) if isinstance(read, WideRead)]
        assert wide
        for lv in wide:
            (lo, hi), (gather, block) = sched.level_bounds[lv], sched.level_reads[lv]
            assert isinstance(block, slice)
            assert block.stop - block.start == gather.size
            # Task t's parents, as a set, are the t-th block of the slice.
            blocks = np.arange(block.start, block.stop).reshape(hi - lo, gather.shape[1])
            assert np.array_equal(np.sort(gather, axis=1), blocks)

    def test_epigenomics_chain_links_are_column_slices(self):
        parents, sched = workflow_layout(epigenomics(100, seed=0))
        for lv in (2, 3, 4):
            (lo, hi), (read,) = sched.level_bounds[lv], sched.level_reads[lv]
            assert isinstance(read, slice)
            # The column is each task's one parent, in permuted slots.
            column = [sched.rank[parents[i][0]] for i in sched.order[lo:hi]]
            assert all(len(parents[i]) == 1 for i in sched.order[lo:hi])
            assert np.array_equal(np.arange(read.start, read.stop), column)

    def test_roots_read_nothing_and_scattered_columns_are_taken(self):
        sched = LevelSchedule.from_parent_indices(((), (), (1,), (0,)))
        assert sched.level_reads[0] is None
        (read,) = sched.level_reads[1]
        assert np.array_equal(read, [1, 0])

    def test_sinks_in_one_range_are_a_slice(self):
        _, sched = workflow_layout(ligo(300, seed=0))
        assert sched.sink_range == slice(294, 308)
        assert sorted(sched.sink_slots.tolist()) == list(range(294, 308))
        scattered = LevelSchedule.from_parent_indices(((), (0,), (1,), ()))  # slots 3, 1
        assert scattered.sink_range is None


class TestIndexDataOnly:
    """A schedule keeps the index data its kernels read, nothing padded to
    the DAG's widest fan-in; the arena ships the parent lists as CSR."""

    def test_montage8_layout_is_small(self):
        _, sched = workflow_layout(montage(degrees=8.0, seed=3))

        def nbytes(value) -> int:
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, tuple):
                return sum(map(nbytes, value))
            return 0

        held = sum(nbytes(getattr(sched, f.name)) for f in dataclasses.fields(sched))
        assert sched.num_tasks == 680
        assert held < 64 * 1024

    def test_arena_round_trip_keeps_parent_lists(self, catalog):
        problem = CompiledProblem.compile(
            montage(degrees=1.0, seed=3), catalog, deadline=3600.0, num_samples=16
        )
        arrays, meta = export_problem_arrays(problem)
        # The samples and the DAG: the schedule and tier 0's calibration derive from them.
        assert set(arrays) == {
            "tensor_taskmajor", "mean_times", "prices", "parent_offsets", "parent_edges",
        }
        rebuilt = problem_from_segment(SimpleNamespace(arrays=arrays, meta=meta), catalog)
        assert rebuilt.parent_indices == problem.parent_indices
        assert rebuilt.levels is not problem.levels
        for field in dataclasses.fields(LevelSchedule):
            _assert_same_value(getattr(rebuilt.levels, field.name),
                               getattr(problem.levels, field.name))
        rng = np.random.default_rng(0)
        states = [PlanState(rng.integers(0, problem.num_types, problem.num_tasks))
                  for _ in range(5)]
        np.testing.assert_array_equal(
            VectorizedBackend().makespan_samples(rebuilt, states),
            ScalarBackend().makespan_samples(problem, states),
        )

    def test_fingerprint_sees_one_edge(self, catalog):
        problem = CompiledProblem.compile(
            montage(degrees=1.0, seed=3), catalog, deadline=3600.0, num_samples=16
        )
        parents = problem.parent_indices
        task = next(i for i, ps in enumerate(parents) if len(ps) >= 2)
        moved = next(p for p in range(task) if p not in parents[task])
        variants = (
            parents[task][1:],                        # one edge dropped
            (moved,) + parents[task][1:],             # one edge re-pointed
        )
        keys = {problem_fingerprint(problem)}
        for variant in variants:
            edited = parents[:task] + (variant,) + parents[task + 1 :]
            keys.add(problem_fingerprint(
                dataclasses.replace(problem, parent_indices=edited, levels=None)
            ))
        assert len(keys) == 1 + len(variants)


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
        np.testing.assert_array_equal(
            sched.makespan(lanes.T), _propagate(sched, lanes).max(axis=1)
        )

    @pytest.mark.parametrize(
        "edges", [[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], None], ids=["diamond", "empty"]
    )
    def test_makespan_takes_task_order_lanes(self, edges):
        """``(N, M)`` times in topological task order, one lane per time
        map: each lane's makespan is the critical path of its times, on a
        diamond and on the empty workflow."""
        if edges is None:
            workflow = Workflow("empty", [], [])
        else:
            workflow = Workflow("diamond", [Task(task_id=t) for t in "abcd"], edges)
        _, sched = workflow_layout(workflow)
        times = np.random.default_rng(5).uniform(0.0, 20.0, size=(len(workflow), 3))
        times[:, 2] = 0.0
        want = [
            static_makespan(workflow, dict(zip(workflow.task_ids, times[:, lane].tolist())))
            for lane in range(3)
        ]
        assert sched.makespan(times).tolist() == want

    def test_shape_mismatch_rejected(self):
        sched = LevelSchedule.from_parent_indices(((), (0,)))
        with pytest.raises(SolverError):
            sched.makespan(np.zeros((3, 5)))


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
