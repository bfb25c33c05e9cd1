"""The one Monte Carlo kernel: ``VectorizedBackend._makespan_full``.

Every state is propagated in full, a batch in chunks of one finish-matrix
byte budget (``backends._FULL_BYTES``); parents that are one slot range
are read in place and a scattered wide-fan-in level is gathered in tiles
(``levels._TILE_BYTES``), and the makespan is reduced over the sink
rows alone.  Whatever the DAG, the batch and the budgets, the rows must
be ``np.array_equal`` to ``ScalarBackend``'s, which takes the max over
every task.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import ec2_catalog
from repro.faults import FaultModel
from repro.solver import backends as backends_module
from repro.solver import levels as levels_module
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.levels import WideRead, workflow_layout
from repro.solver.state import PlanState, StateBlock
from repro.workflow.critical_path import makespan_samples
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, pipeline, random_dag

CATALOG = ec2_catalog()
SAMPLES = 5


def synthetic_problem(workflow: Workflow, seed: int, zero_tasks=()) -> CompiledProblem:
    """A compiled problem over ``workflow``: random positive task times,
    and zero on every type and sample for the tasks in ``zero_tasks``."""
    parents, levels = workflow_layout(workflow)
    k = len(CATALOG.type_names)
    tensor = np.random.default_rng(seed).uniform(1.0, 50.0, (k, SAMPLES, len(workflow)))
    tensor[:, :, [workflow.index_of(t) for t in zero_tasks]] = 0.0
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


def random_block(problem: CompiledProblem, size: int, seed: int) -> StateBlock:
    rng = np.random.default_rng(seed)
    return StateBlock(rng.integers(0, problem.num_types, (size, problem.num_tasks)))


def assert_equals_scalar(problem: CompiledProblem, block: StateBlock, small: bool) -> None:
    """The kernel's rows equal ``ScalarBackend``'s, under the real byte
    budgets or with one state per chunk and one task per wide tile."""
    budgets = (0, 0) if small else (backends_module._FULL_BYTES, levels_module._TILE_BYTES)
    with mock.patch.object(backends_module, "_FULL_BYTES", budgets[0]), \
            mock.patch.object(levels_module, "_TILE_BYTES", budgets[1]):
        got = VectorizedBackend().makespan_samples(problem, block)
    want = ScalarBackend().makespan_samples(problem, block)
    assert got.dtype == want.dtype == problem.tensor.dtype
    np.testing.assert_array_equal(got, want)


class TestFullKernelIdentity:
    @given(dags(), st.integers(0, 2**32 - 1), st.integers(1, 9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_on_drawn_dags(self, workflow, seed, size, small):
        problem = synthetic_problem(workflow, seed)
        assert_equals_scalar(problem, random_block(problem, size, seed), small)

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_wide_fan_in(self, size, small):
        problem = synthetic_problem(fan_in(9), seed=size)
        assert_equals_scalar(problem, random_block(problem, size, seed=size), small)

    @pytest.mark.parametrize("small", [False, True])
    def test_sinks_at_different_depths_with_zero_time_tasks(self, small):
        """Sinks on levels 0 to 3; the deepest sink, its parent and the
        isolated sink take no time, so the deepest sink ties the finish of
        a task two levels up and the isolated one never wins."""
        names = ("alone", "a", "b", "c", "d", "e", "short")
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "short"), ("b", "e")]
        workflow = Workflow("sinks", [Task(task_id=t) for t in names], edges)
        problem = synthetic_problem(workflow, seed=3, zero_tasks=("d", "c", "alone"))
        sched = problem.levels
        depths = sorted(int(sched.depth[sched.order[slot]]) for slot in sched.sink_slots)
        assert depths == [0, 1, 2, 3]
        block = random_block(problem, 6, seed=3)
        assert_equals_scalar(problem, block, small)
        # Every task's finish, not the sinks' alone: the same rows.
        tm = problem.tensor_taskmajor
        tasks = np.arange(problem.num_tasks)
        every_row = np.stack(
            [makespan_samples(workflow, tm[row, tasks].T) for row in block.assign]
        )
        got = VectorizedBackend().makespan_samples(problem, block)
        np.testing.assert_array_equal(got, every_row)


def compiled(workflow: Workflow, catalog, runtime_model, seed: int, samples: int = 8):
    return CompiledProblem.compile(
        workflow, catalog, deadline=1e9, percentile=96.0, num_samples=samples,
        seed=seed, runtime_model=runtime_model,
    )


def spread_edits(problem: CompiledProblem, parent: PlanState, batch: int = 12) -> StateBlock:
    """Single-task edits of ``parent`` spread across the DAG, alternating
    promote and demote: the neighbours a beam iteration evaluates."""
    n = len(parent)
    children = []
    for j, i in enumerate(range(0, n, max(1, n // batch))):
        child = parent.promote(i, problem.num_types) if j % 2 else parent.demote(i)
        if child is not None:
            children.append(child)
        if len(children) == batch:
            break
    return StateBlock.from_states(children)


GENERATED = {
    "ligo": lambda seed: ligo(40, seed=seed),
    "epigenomics": lambda seed: epigenomics(40, seed=seed),
    "cybershake": lambda seed: cybershake(40, seed=seed),
    "pipeline": lambda seed: pipeline(12, seed=seed),
    "random": lambda seed: random_dag(30, edge_prob=0.3, seed=seed),
}


class TestFullKernelOnGenerators:
    """Compiled problems of the shipped generators, on the batches a
    search sends: the same rows as ``ScalarBackend``."""

    @pytest.mark.parametrize("degrees", [1, 4, 8])
    @pytest.mark.parametrize("seed", [5, 21])
    def test_single_task_edits_of_one_plan(self, catalog, runtime_model, degrees, seed):
        problem = compiled(montage(degrees=degrees, seed=seed), catalog, runtime_model, seed)
        parent = PlanState.uniform(problem.num_tasks, 1)
        assert_equals_scalar(problem, spread_edits(problem, parent), small=False)

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_workflows(self, catalog, runtime_model, name, small):
        problem = compiled(GENERATED[name](3), catalog, runtime_model, seed=3)
        assert_equals_scalar(problem, random_block(problem, 7, seed=3), small)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_every_single_task_edit_of_a_random_dag(self, catalog, runtime_model, seed):
        problem = compiled(random_dag(15, edge_prob=0.3, seed=seed), catalog, runtime_model, seed)
        parent = PlanState.uniform(problem.num_tasks, 1)
        children = [
            child
            for i in range(problem.num_tasks)
            for child in (parent.promote(i, problem.num_types), parent.demote(i))
            if child is not None
        ]
        assert len(children) == 2 * problem.num_tasks
        assert_equals_scalar(problem, StateBlock.from_states(children), small=False)

    def test_edits_of_several_tasks_at_once(self, catalog, runtime_model):
        problem = compiled(montage(degrees=1, seed=2), catalog, runtime_model, seed=5)
        assign = np.ones((3, problem.num_tasks), dtype=np.int64)
        assign[0, [0, 7, 19]] = [2, 0, 3]
        assign[1, ::2] = 0
        assign[2, -5:] = problem.num_types - 1
        assert_equals_scalar(problem, StateBlock(assign), small=False)

    def test_a_repeated_state_gets_the_same_row_each_time(self, catalog, runtime_model):
        problem = compiled(montage(degrees=1, seed=2), catalog, runtime_model, seed=5)
        one = PlanState.uniform(problem.num_tasks, 2)
        other = one.promote(4, problem.num_types)
        got = VectorizedBackend().makespan_samples(problem, [one, other, one, one])
        np.testing.assert_array_equal(got[0], got[2])
        np.testing.assert_array_equal(got[0], got[3])
        assert_equals_scalar(problem, StateBlock.from_states([one, other, one]), small=True)

    @pytest.mark.parametrize("rate", [0.05, 0.3])
    def test_fault_inflated_problems(self, catalog, runtime_model, rate):
        base = compiled(montage(degrees=1, seed=2), catalog, runtime_model, seed=5)
        problem = base.with_faults(FaultModel(task_failure_rate=rate))
        assert problem.tensor.dtype == base.tensor.dtype
        assert_equals_scalar(problem, random_block(problem, 5, seed=9), small=False)

    def test_results_do_not_alias_the_pooled_buffers(self, catalog, runtime_model):
        """A caller may hold on to a result while the next launch reuses
        the pool (the memo stores the rows it is handed)."""
        problem = compiled(montage(degrees=1, seed=2), catalog, runtime_model, seed=5)
        backend = VectorizedBackend()
        first_block = random_block(problem, 4, seed=1)
        first = backend.makespan_samples(problem, first_block)
        kept = first.copy()
        second = backend.makespan_samples(problem, random_block(problem, 4, seed=2))
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(first, ScalarBackend().makespan_samples(problem, first_block))


class TestBudgetsCutAnywhere:
    """A chunk boundary may fall after any state and a tile boundary
    after any task of a wide level; neither moves a row."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 5, 7, 64])
    def test_states_per_chunk(self, per_chunk):
        problem = synthetic_problem(fan_in(6), seed=per_chunk)
        block = random_block(problem, 11, seed=per_chunk)
        per_state = (problem.num_tasks + 1) * problem.num_samples * problem.tensor.dtype.itemsize
        backend = VectorizedBackend()
        with mock.patch.object(backends_module, "_FULL_BYTES", per_chunk * per_state):
            got = backend.makespan_samples(problem, block)
        # The finish matrix was sized by the chunk, not by the batch.
        finish = backend.pool.take("finish", (1,), problem.tensor.dtype)
        columns = finish.base.size // (problem.num_tasks + 1)
        assert columns == min(per_chunk, 11) * problem.num_samples
        np.testing.assert_array_equal(got, ScalarBackend().makespan_samples(problem, block))

    @pytest.mark.parametrize("per_tile", [1, 2, 4, 9])
    def test_tasks_per_wide_tile(self, per_tile):
        """Three joins of a fan-in of 6 on one level, cut into tiles of
        ``per_tile`` joins.  The joins share their roots, so the level is
        a gather and the tile budget reaches it."""
        roots = [f"r{i}" for i in range(6)]
        joins = ["j0", "j1", "j2"]
        workflow = Workflow(
            "joins", [Task(task_id=t) for t in (*roots, *joins)],
            [(r, j) for j in joins for r in roots],
        )
        problem = synthetic_problem(workflow, seed=per_tile)
        assert problem.levels.level_reads[1].block is None
        block = random_block(problem, 4, seed=per_tile)
        tile = 6 * len(block) * problem.num_samples * problem.tensor.dtype.itemsize
        with mock.patch.object(levels_module, "_TILE_BYTES", per_tile * tile):
            got = VectorizedBackend().makespan_samples(problem, block)
        np.testing.assert_array_equal(got, ScalarBackend().makespan_samples(problem, block))



def problem_of(parents: tuple, seed: int) -> CompiledProblem:
    """A synthetic problem over raw topological parent lists, in that
    numbering (which a ``Workflow``'s own topological order may not give)."""
    isolated = Workflow("raw", [Task(task_id=f"t{i:02d}") for i in range(len(parents))])
    return dataclasses.replace(
        synthetic_problem(isolated, seed), parent_indices=parents, levels=None
    )


def read_kinds(problem: CompiledProblem) -> list:
    """Per level, how the max-plus pass reads the parents: ``None`` (roots),
    ``"block"`` / ``"gather"`` (wide fan-in), or a tuple of ``"slice"`` /
    ``"take"`` per column."""
    kinds = []
    for read in problem.levels.level_reads:
        if isinstance(read, WideRead):
            kinds.append("gather" if read.block is None else "block")
        else:
            kinds.append(None if read is None else
                         tuple("slice" if isinstance(c, slice) else "take" for c in read))
    return kinds


ROOTS = ((),) * 10

#: Parent lists -> the read kinds the schedule must pick for them.
READ_PATHS = {
    # Joins that share their roots: each reads 0-5, no block per join.
    "shared-roots": (ROOTS[:6] + (tuple(range(6)),) * 3, [None, "gather"]),
    # Unequal fan-in on one wide level: the 4-parent join is padded.
    "padded": (ROOTS + ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9)), [None, "gather"]),
    # Each join reads one block of slots, but the first join the second block.
    "blocks-out-of-order": (ROOTS + ((5, 6, 7, 8, 9), (0, 1, 2, 3, 4)), [None, "gather"]),
    # Blocks in slot order, each listed backwards: as a set, a block.
    "blocks-listed-backwards": (ROOTS + ((4, 3, 2, 1, 0), (9, 8, 7, 6, 5)), [None, "block"]),
    # Narrow fan-in: column 0 a slot range and column 1 scattered, then
    # the other way round one level down.
    "mixed-columns": (
        ROOTS[:6] + ((0, 5), (1, 3), (2, 4)) + ((1, 6), (0, 7), (2, 8)),
        [None, ("slice", "take"), ("take", "slice")],
    ),
}


class TestReadPaths:
    """Each way the max-plus pass reads parents -- a view of a slot range
    or a gather -- gives ``ScalarBackend``'s rows, which read every parent
    list in its own order and share no code with it."""

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("name", sorted(READ_PATHS))
    def test_equals_scalar(self, name, small):
        parents, kinds = READ_PATHS[name]
        problem = problem_of(parents, seed=len(name))
        assert read_kinds(problem) == kinds
        assert_equals_scalar(problem, random_block(problem, 5, seed=len(name)), small)
