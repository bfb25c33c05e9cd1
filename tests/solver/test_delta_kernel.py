"""The cross-parent delta kernel: one launch per batch, frontiers in place.

DESIGN.md §10 / §18.  ``VectorizedBackend._delta_launch`` takes a whole
beam iteration's lineage children -- whichever parents they descend
from -- and, through ``ensure_frontier(problem, *states)``, pins the
iteration's parents with the same kernel.  Everything it returns must be
``np.array_equal`` to the fused full kernel and to ``ScalarBackend``,
however the batch is cut by the workspace byte cap and whatever the
frontier LRU has room for.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import ec2_catalog
from repro.common.errors import SolverError
from repro.engine import Deco
from repro.solver import cache as cache_module
from repro.solver.backends import (
    CompiledProblem,
    EvaluationBackend,
    ScalarBackend,
    VectorizedBackend,
)
from repro.solver.cache import EvalContext
from repro.solver.levels import LevelSchedule, workflow_layout
from repro.solver.state import PlanState, StateBlock
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import montage

CATALOG = ec2_catalog()
SAMPLES = 5


def synthetic_problem(workflow: Workflow, seed: int) -> CompiledProblem:
    """A compiled problem over a drawn DAG: random positive task times."""
    parents, levels = workflow_layout(workflow)
    k = len(CATALOG.type_names)
    tensor = np.random.default_rng(seed).uniform(1.0, 50.0, (k, SAMPLES, len(workflow)))
    return CompiledProblem(
        workflow=workflow,
        catalog=CATALOG,
        mean_times=tensor.mean(axis=1),
        tensor=tensor,
        prices=np.arange(1.0, k + 1.0),
        parent_indices=parents,
        deadline=1e9,
        required_probability=0.9,
        levels=levels,
    )


def reference_frontier(problem: CompiledProblem, state: PlanState) -> np.ndarray:
    """``LevelSchedule.propagate_permuted`` on the state's lanes, ``(N+1, S)``."""
    order = problem.levels.order
    lanes = problem.tensor_taskmajor[state.assignment[order].astype(np.int64), order]
    return problem.levels.propagate_permuted(lanes)


def edit(parent: PlanState, changes: dict[int, int]) -> PlanState:
    """``parent`` with ``task -> type`` reassignments; lineage lists them all."""
    arr = parent.assignment.copy()
    for task, type_index in changes.items():
        arr[task] = type_index
    return PlanState(arr, parent_key=parent.key, dirty=tuple(changes))


def workspace_rows(backend: VectorizedBackend, problem: CompiledProblem) -> int:
    slab = backend.eval_context.slab(problem.sample_token)
    return slab.rows.shape[0] - slab.workspace_start


def assert_batch_identical(problem, backend, batch) -> np.ndarray:
    got = backend.makespan_samples(problem, batch)
    np.testing.assert_array_equal(got, VectorizedBackend().makespan_samples(problem, batch))
    np.testing.assert_array_equal(got, ScalarBackend().makespan_samples(problem, batch))
    return got


@st.composite
def dags(draw, max_tasks: int = 14):
    """A drawn DAG; parent sets of up to 7 put fan-in on both sides of the
    kernel's column-gather limit of 4."""
    n = draw(st.integers(2, max_tasks))
    edges = [
        (f"t{i:02d}", f"t{j:02d}")
        for j in range(1, n)
        for i in draw(st.sets(st.integers(0, j - 1), max_size=7))
    ]
    return Workflow("drawn", [Task(task_id=f"t{i:02d}") for i in range(n)], edges)


def fan_in(width: int) -> Workflow:
    """``width`` roots -> join -> two tails, plus one isolated task: a
    fan-in above 4, and three sinks."""
    roots = [f"r{i:02d}" for i in range(width)]
    tasks = [Task(task_id=t) for t in (*roots, "join", "tail-a", "tail-b", "alone")]
    edges = [(r, "join") for r in roots] + [("join", "tail-a"), ("join", "tail-b")]
    return Workflow("fan-in", tasks, edges)


class TestBatchedDeltaIdentity:
    @given(
        dags(),
        st.sampled_from([1, 3, 8]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_full_kernel_and_scalar(self, workflow, num_parents, seed, small_cap):
        self.check(workflow, num_parents, seed, small_cap)

    @pytest.mark.parametrize("num_parents", [1, 3, 8])
    @pytest.mark.parametrize("small_cap", [False, True])
    def test_wide_fan_in(self, num_parents, small_cap):
        self.check(fan_in(9), num_parents, seed=num_parents, small_cap=small_cap)

    @staticmethod
    def check(workflow, num_parents, seed, small_cap):
        problem = synthetic_problem(workflow, seed)
        n, k = problem.num_tasks, problem.num_types
        rng = np.random.default_rng(seed)
        parents = list(
            {
                st.key: st
                for st in (PlanState(rng.integers(0, k, n)) for _ in range(num_parents))
            }.values()
        )
        # The same drawn edits go to every parent (shared), then each
        # parent gets edits of its own (distinct); all interleaved.
        shared = [(int(rng.integers(n)), int(rng.integers(k))) for _ in range(3)]
        batch: list[PlanState] = []
        for parent in parents:
            for task, type_index in shared:
                batch.append(edit(parent, {task: type_index}))
            own = int(rng.integers(n))
            batch.append(parent.with_type(own, (int(parent.assignment[own]) + 1) % k))
            several = rng.choice(n, size=min(n, 3), replace=False)
            batch.append(edit(parent, {int(t): int(rng.integers(k)) for t in several}))
            # An edit that changes nothing: every recomputed row, sinks
            # included, must come out equal to the parent's.
            batch.append(edit(parent, {own: int(parent.assignment[own])}))
            # An edit of a sink alone: every other sink is read in place.
            sink = int(problem.levels.order[problem.levels.sink_slots[-1]])
            batch.append(parent.with_type(sink, (int(parent.assignment[sink]) + 1) % k))
        lineage = len(batch)
        orphan = PlanState(rng.integers(0, k, n))
        pinned = {p.key for p in parents}
        unpinned = next(
            st for st in iter(lambda: PlanState(rng.integers(0, k, n)), None)
            if st.key not in pinned
        )
        stranger = unpinned.with_type(0, (int(unpinned.assignment[0]) + 1) % k)
        batch = [batch[i] for i in rng.permutation(lineage)]
        batch[len(batch) // 2 : len(batch) // 2] = [orphan, stranger]

        cap = 0 if small_cap else cache_module.LAUNCH_WORKSPACE_BYTES
        with mock.patch.object(cache_module, "LAUNCH_WORKSPACE_BYTES", cap):
            backend = VectorizedBackend(eval_context=EvalContext())
            backend.ensure_frontier(problem, *parents)
            assert_batch_identical(problem, backend, batch)
        stats = backend.delta_stats()
        assert stats["states_incremental"] == lineage
        assert stats["states_full"] == 2
        if small_cap:
            assert workspace_rows(backend, problem) == n + 1

    def test_byte_cap_cuts_inside_a_sibling_group(self):
        """A workspace of one state's rows forces >= 3 chunks on one
        parent's 12 children -- every cut falls between siblings."""
        problem = synthetic_problem(fan_in(9), seed=4)
        n, k = problem.num_tasks, problem.num_types
        parent = PlanState.uniform(n, 1)
        roots = [problem.workflow.index_of(f"r{i:02d}") for i in range(9)]
        children = [parent.with_type(roots[i % 9], (i // 9) * 2) for i in range(12)]
        with mock.patch.object(cache_module, "LAUNCH_WORKSPACE_BYTES", 0):
            backend = VectorizedBackend(eval_context=EvalContext())
            backend.ensure_frontier(problem, parent)
            assert_batch_identical(problem, backend, children)
        # Root -> join -> two tails: 4 pairs per child, 13 rows of workspace.
        stats = backend.delta_stats()
        assert stats["rows_recomputed"] == 4 * 12 > 2 * workspace_rows(backend, problem)
        assert stats["levels_skipped"] == 0 and stats["levels_total"] == 3 * 12

    def test_counters_sum_over_the_batch(self):
        """Counters of one cross-parent launch equal the per-parent sums."""
        problem = synthetic_problem(fan_in(6), seed=2)
        n, k = problem.num_tasks, problem.num_types
        parents = [PlanState.uniform(n, t) for t in range(3)]
        edited = [problem.workflow.index_of(t) for t in ("r00", "join", "alone")]
        groups = [
            [p.with_type(i, (int(p.assignment[i]) + 1) % k) for i in edited]
            for p in parents
        ]
        together = VectorizedBackend(eval_context=EvalContext())
        together.ensure_frontier(problem, *parents)
        together.makespan_samples(problem, [c for g in groups for c in g])
        apart = VectorizedBackend(eval_context=EvalContext())
        apart.ensure_frontier(problem, *parents)
        for group in groups:
            apart.makespan_samples(problem, group)
        assert together.delta_stats() == apart.delta_stats()
        assert together.delta_stats()["rows_recomputed"] == 3 * (4 + 3 + 1)


class TestPinnedFrontiers:
    @given(dags(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_pins_and_chained_pins_equal_full_propagation(self, workflow, seed, small_cap):
        problem = synthetic_problem(workflow, seed)
        n, k = problem.num_tasks, problem.num_types
        rng = np.random.default_rng(seed)
        roots = [PlanState(rng.integers(0, k, n)) for _ in range(3)]
        children = [
            edit(p, {int(t): int(rng.integers(k)) for t in rng.choice(n, 2, replace=False)})
            for p in roots
            for _ in range(2)
        ]
        grand = [c.with_type(int(rng.integers(n)), int(rng.integers(k))) for c in children]
        cap = 0 if small_cap else cache_module.LAUNCH_WORKSPACE_BYTES
        with mock.patch.object(cache_module, "LAUNCH_WORKSPACE_BYTES", cap):
            backend = VectorizedBackend(eval_context=EvalContext())
            ctx = backend.eval_context
            backend.ensure_frontier(problem, *roots)      # full propagation
            backend.ensure_frontier(problem, *children)   # one in-place launch
            backend.ensure_frontier(problem, *grand)      # chained on the pins
        pinned = {st.key: st for st in (*roots, *children, *grand)}
        assert len(ctx) == len(pinned)
        token = problem.sample_token
        for state in pinned.values():
            slot = ctx.find(token, state.key)
            np.testing.assert_array_equal(
                ctx.slab(token).frontier(slot), reference_frontier(problem, state)
            )
        # Roots were propagated in full; everything else took the kernel.
        chained = len(pinned) - len({st.key for st in roots})
        assert backend.delta_stats()["states_incremental"] == chained

    def test_full_pins_propagate_in_pooled_buffers(self):
        """A state pinned without a resident parent is propagated in full
        through the pool: its lanes and both ``(max width, S)`` scratch
        blocks are views of pooled backings, not fresh arrays."""
        problem = CompiledProblem.compile(
            montage(degrees=4.0, seed=1), CATALOG, deadline=3600.0, num_samples=150, seed=1
        )
        rng = np.random.default_rng(0)
        roots = [PlanState(rng.integers(0, problem.num_types, problem.num_tasks)) for _ in range(4)]
        backend = VectorizedBackend()
        calls = []
        propagate = LevelSchedule.propagate_permuted

        def recorded(self, lanes, finish=None, scratch=None):
            calls.append((lanes, scratch))
            return propagate(self, lanes, finish=finish, scratch=scratch)

        with mock.patch.object(LevelSchedule, "propagate_permuted", recorded):
            backend.ensure_frontier(problem, *roots)
        assert len(calls) == len(roots)
        pooled = list(backend.pool._bufs.values())
        for lanes, scratch in calls:
            assert scratch is not None
            for block in (lanes, *scratch):
                assert any(np.shares_memory(block, backing) for backing in pooled)
        ctx, token = backend.eval_context, problem.sample_token
        for state in roots:
            np.testing.assert_array_equal(
                ctx.slab(token).frontier(ctx.find(token, state.key)),
                reference_frontier(problem, state),
            )

    @given(dags(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_parents_pinned_in_the_launch_that_evaluates_their_children(
        self, workflow, seed, small_cap
    ):
        """``evaluate_batch(..., pins=parents)``'s rows: the parents chained on
        resident frontiers are pinned and their children evaluated in one
        launch -- the same makespans, frontiers and counters as pinning
        first and evaluating after, whichever chunk each lands in."""
        problem = synthetic_problem(workflow, seed)
        n, k = problem.num_tasks, problem.num_types
        rng = np.random.default_rng(seed)
        roots = [PlanState(rng.integers(0, k, n)) for _ in range(2)]
        parents = [
            edit(r, {int(t): int(rng.integers(k)) for t in rng.choice(n, 2, replace=False)})
            for r in roots
            for _ in range(2)
        ]
        parents.append(PlanState(rng.integers(0, k, n)))  # no lineage: propagated in full
        kids = [p.with_type(int(rng.integers(n)), int(rng.integers(k))) for p in parents]
        kids += [edit(p, {0: int(rng.integers(k)), n - 1: int(rng.integers(k))}) for p in parents]
        kids.append(PlanState(rng.integers(0, k, n)))  # an orphan: full kernel
        kids = [kids[i] for i in rng.permutation(len(kids))]
        cap = 0 if small_cap else cache_module.LAUNCH_WORKSPACE_BYTES
        launches = []
        launch = VectorizedBackend._delta_launch

        def counted(self, *args, **kwargs):
            launches.append(kwargs.get("pins", 0))
            return launch(self, *args, **kwargs)

        with mock.patch.object(cache_module, "LAUNCH_WORKSPACE_BYTES", cap):
            fused = VectorizedBackend(eval_context=EvalContext())
            fused.ensure_frontier(problem, *roots)
            with mock.patch.object(VectorizedBackend, "_delta_launch", counted):
                got = fused._sample_rows(
                    problem, StateBlock.from_states(kids), StateBlock.from_states(parents)
                )
            apart = VectorizedBackend(eval_context=EvalContext())
            apart.ensure_frontier(problem, *roots)
            apart.ensure_frontier(problem, *parents)
            want = apart.makespan_samples(problem, kids)
        assert len(launches) == 1 and launches[0] <= 4  # chained parents, then children
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, ScalarBackend().makespan_samples(problem, kids))
        ctx, token = fused.eval_context, problem.sample_token
        for state in parents:
            np.testing.assert_array_equal(
                ctx.slab(token).frontier(ctx.find(token, state.key)),
                reference_frontier(problem, state),
            )
        assert fused.delta_stats() == apart.delta_stats()

    def test_repeated_and_resident_states_are_pinned_once(self):
        problem = synthetic_problem(fan_in(5), seed=1)
        backend = VectorizedBackend(eval_context=EvalContext())
        a = PlanState.uniform(problem.num_tasks, 0)
        b = a.with_type(2, 1)
        backend.ensure_frontier(problem, a, a)
        backend.ensure_frontier(problem, a, b, b)
        assert len(backend.eval_context) == 2
        assert backend.delta_stats()["states_incremental"] == 1

    def test_default_backend_ignores_the_hint(self):
        problem = synthetic_problem(fan_in(5), seed=1)
        state = PlanState.uniform(problem.num_tasks, 0)
        assert ScalarBackend().ensure_frontier(problem, state, state) is None
        assert "ensure_frontier" in EvaluationBackend.__dict__


class TestLruSafetyUnderBatching:
    def test_parent_that_does_not_fit_falls_back_to_full(self, monkeypatch):
        monkeypatch.setattr(EvalContext, "MAX_ENTRIES", 2)
        problem = synthetic_problem(fan_in(9), seed=7)
        n, k = problem.num_tasks, problem.num_types
        parents = [PlanState.uniform(n, t) for t in range(3)]
        backend = VectorizedBackend()
        ctx, token = backend.eval_context, problem.sample_token
        backend.ensure_frontier(problem, *parents)
        # Two fit; storing the third may not evict what the call just wrote.
        assert [ctx.peek(token, p.key) for p in parents] == [True, True, False]
        batch = [p.with_type(i, (t + 1) % k) for t, p in enumerate(parents) for i in (0, 9, 10)]
        assert_batch_identical(problem, backend, batch)
        stats = backend.delta_stats()
        assert (stats["states_incremental"], stats["states_full"]) == (6, 3)

    def test_a_pin_never_evicts_the_frontier_its_launch_reads(self, monkeypatch):
        monkeypatch.setattr(EvalContext, "MAX_ENTRIES", 2)
        problem = synthetic_problem(fan_in(9), seed=8)
        n = problem.num_tasks
        backend = VectorizedBackend()
        ctx, token = backend.eval_context, problem.sample_token
        root = PlanState.uniform(n, 2)
        backend.ensure_frontier(problem, root)
        kids = [root.with_type(0, 0), root.with_type(9, 1)]
        # Both read ``root``; there is room for one of them beside it.
        backend.ensure_frontier(problem, *kids)
        assert ctx.peek(token, root.key) and ctx.peek(token, kids[0].key)
        assert not ctx.peek(token, kids[1].key)
        for state in (root, kids[0]):
            np.testing.assert_array_equal(
                ctx.slab(token).frontier(ctx.find(token, state.key)),
                reference_frontier(problem, state),
            )
        assert_batch_identical(
            problem, backend, [k.with_type(10, 3) for k in kids] + [root.with_type(3, 0)]
        )

    def test_problems_of_one_shape_share_a_slab_and_stay_identical(self, monkeypatch):
        """A warm engine's next workflow evicts the last one's frontiers
        into the slots it takes: same mapping, nothing of the other
        problem's read."""
        monkeypatch.setattr(EvalContext, "MAX_ENTRIES", 3)
        first = synthetic_problem(fan_in(9), seed=11)
        second = synthetic_problem(fan_in(9), seed=12)
        n, k = first.num_tasks, first.num_types
        backend = VectorizedBackend()
        ctx = backend.eval_context
        parents = [PlanState.uniform(n, t) for t in range(3)]
        batch = [p.with_type(i, (t + 1) % k) for t, p in enumerate(parents) for i in (0, 9, 10)]
        slab = held = None
        for problem in (first, second, first, second):
            backend.ensure_frontier(problem, *parents)  # evicts the other problem's three
            slab = slab or ctx.slab(problem.sample_token)
            assert ctx.slab(problem.sample_token) is slab and len(ctx) == 3
            assert_batch_identical(problem, backend, batch)
            for state in parents:
                np.testing.assert_array_equal(
                    slab.frontier(ctx.find(problem.sample_token, state.key)),
                    reference_frontier(problem, state),
                )
            # The first problem touched all the memory any later one uses.
            held = held or ctx.nbytes()
            assert ctx.nbytes() == held
        assert backend.delta_stats()["states_full"] == 0

    def test_failed_launch_leaves_no_half_written_frontier(self):
        problem = synthetic_problem(fan_in(5), seed=3)
        backend = VectorizedBackend(eval_context=EvalContext())
        ctx, token = backend.eval_context, problem.sample_token
        root = PlanState.uniform(problem.num_tasks, 0)
        backend.ensure_frontier(problem, root)
        good = root.with_type(1, 1)
        bad = PlanState(good.assignment, parent_key=root.key, dirty=(problem.num_tasks,))
        with pytest.raises(SolverError, match="out of range"):
            backend.ensure_frontier(problem, good, bad)
        assert len(ctx) == 1 and ctx.peek(token, root.key)
        backend.ensure_frontier(problem, good)
        assert_batch_identical(problem, backend, [good.with_type(0, 2)])


class TestSearchLaunchesAndMemory:
    def test_at_most_two_delta_launches_per_beam_iteration(self, catalog):
        """One launch per iteration: the parents are pinned in the launch
        that evaluates their children (a pin launch and an evaluate
        launch before that; the per-parent kernels made 12.7 on the
        budget-long medium/96 solve of this workflow).  The loose/90
        solve runs enough iterations before the search's idle stop."""
        calls = {"launch": 0, "evaluate": 0}
        launch, evaluate = VectorizedBackend._delta_launch, EvaluationBackend.evaluate_batch

        def counted_launch(self, *args, **kwargs):
            calls["launch"] += 1
            return launch(self, *args, **kwargs)

        def counted_evaluate(self, *args, **kwargs):
            calls["evaluate"] += 1
            return evaluate(self, *args, **kwargs)

        deco = Deco(catalog, seed=3, num_samples=64, max_evaluations=400)
        with mock.patch.object(VectorizedBackend, "_delta_launch", counted_launch), \
                mock.patch.object(EvaluationBackend, "evaluate_batch", counted_evaluate):
            deco.schedule(montage(degrees=1.0, seed=3), "loose", deadline_percentile=90.0)
        iterations = calls["evaluate"] - 1  # the first call evaluates the seeds
        assert iterations >= 5
        assert calls["launch"] == iterations
        assert deco.last_result.states_incremental > 300

    def test_solve_memory_stays_at_the_per_parent_kernels_level(self, catalog):
        """Scratch pool + frontier context after three Montage-8 solves
        on one engine with the benchmark's engine knobs.  The commit
        before the pair kernel held 82 151 481 B after one budget-long
        cold solve (52 224 000 B of frontiers, 29 927 481 B of pooled
        scratch); the search's idle stop makes one solve too short, so
        the delta work is summed over three workflows at tight/90."""
        deco = Deco(catalog, seed=7, num_samples=150, max_evaluations=1500)
        incremental = 0
        for seed in (1, 2, 3):
            deco.schedule(montage(degrees=8.0, seed=seed), "tight", deadline_percentile=90.0)
            incremental += deco.last_result.states_incremental
        assert incremental > 500
        held = deco.backend.pool.nbytes() + deco.backend.eval_context.nbytes()
        assert held <= 1.10 * 82_151_481
