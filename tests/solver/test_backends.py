"""Tests for the compiled problem and evaluation backends."""

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.faults.model import FaultModel
from repro.solver import backends as backends_module
from repro.solver.backends import (
    CompiledProblem,
    ScalarBackend,
    VectorizedBackend,
    get_backend,
)
from repro.solver.levels import workflow_layout
from repro.solver.state import PlanState, StateBlock
from repro.workflow.critical_path import makespan_samples
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import montage, random_dag


@pytest.fixture(scope="module")
def problem(catalog, runtime_model):
    wf = montage(degrees=1, seed=2)
    return CompiledProblem.compile(
        wf, catalog, deadline=2000.0, percentile=96.0, num_samples=64,
        seed=5, runtime_model=runtime_model,
    )


class TestCompile:
    def test_shapes(self, problem, catalog):
        k, s, n = problem.tensor.shape
        assert k == len(catalog)
        assert s == 64
        assert n == len(problem.workflow)
        assert problem.mean_times.shape == (k, n)
        assert problem.prices.shape == (k,)

    def test_parent_indices_topological(self, problem):
        for i, parents in enumerate(problem.parent_indices):
            assert all(p < i for p in parents)

    def test_invalid_deadline_rejected(self, problem, catalog, runtime_model):
        with pytest.raises(SolverError):
            CompiledProblem.compile(problem.workflow, catalog, deadline=-1.0)

    def test_invalid_percentile_rejected(self, problem, catalog):
        with pytest.raises(SolverError):
            CompiledProblem.compile(problem.workflow, catalog, deadline=10.0, percentile=0.0)

    def test_with_deadline(self, problem):
        other = problem.with_deadline(999.0, percentile=90.0)
        assert other.deadline == 999.0
        assert other.required_probability == pytest.approx(0.9)
        assert other.tensor is problem.tensor

    @pytest.mark.parametrize("percentile", [0.0, -1.0, 101.0, float("nan")])
    def test_with_deadline_checks_the_percentile(self, problem, percentile):
        # The check compile() makes: a derived problem may not claim
        # P >= 0 (met by any plan) or P >= 1.01 (met by none).
        with pytest.raises(SolverError, match="percentile"):
            problem.with_deadline(999.0, percentile=percentile)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan"), float("inf")])
    def test_with_deadline_checks_the_deadline(self, problem, deadline):
        with pytest.raises(SolverError, match="deadline"):
            problem.with_deadline(deadline)

    def test_expected_cost_eq1(self, problem):
        assign = np.zeros(problem.num_tasks, dtype=int)
        idx = np.arange(problem.num_tasks)
        manual = (problem.mean_times[0, idx] * problem.prices[0]).sum() / 3600.0
        assert problem.expected_cost(assign) == pytest.approx(manual)

    def test_state_from_assignment(self, problem, catalog):
        mapping = {tid: "m1.large" for tid in problem.workflow.task_ids}
        st = problem.state_from_assignment(mapping)
        assert set(st.assignment.tolist()) == {catalog.index_of("m1.large")}


class TestBackends:
    def test_factory(self):
        assert get_backend("gpu").name == "gpu"
        with pytest.raises(SolverError):
            get_backend("tpu")
        with pytest.raises(SolverError, match=r"choose from gpu\|analytic"):
            get_backend("cpu")  # the scalar reference is built directly

    def test_vectorized_matches_scalar_exactly(self, problem):
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(problem.num_types)]
        gpu = VectorizedBackend().makespan_samples(problem, states)
        cpu = ScalarBackend().makespan_samples(problem, states)
        assert np.array_equal(gpu, cpu)

    def test_vectorized_matches_reference_makespan(self, problem):
        state = PlanState.uniform(problem.num_tasks, 1)
        mk = VectorizedBackend().makespan_samples(problem, [state])[0]
        n = problem.num_tasks
        times = problem.tensor[state.assignment, :, np.arange(n)].T  # (S, N)
        expected = makespan_samples(problem.workflow, times)
        assert np.array_equal(mk, expected)

    def test_mixed_assignment_gathers_correctly(self, problem):
        rng = np.random.default_rng(0)
        assign = rng.integers(0, problem.num_types, size=problem.num_tasks)
        state = PlanState(assign)
        gpu = VectorizedBackend().makespan_samples(problem, [state])
        cpu = ScalarBackend().makespan_samples(problem, [state])
        assert np.array_equal(gpu, cpu)

    def test_evaluate_fields(self, problem):
        ev = VectorizedBackend().evaluate(problem, PlanState.uniform(problem.num_tasks, 3))
        assert 0.0 <= ev.probability <= 1.0
        assert ev.cost > 0
        assert ev.mean_makespan > 0
        assert ev.feasible == (ev.probability >= problem.required_probability - 1e-12)

    def test_faster_types_higher_probability(self, problem):
        backend = VectorizedBackend()
        evs = [
            backend.evaluate(problem, PlanState.uniform(problem.num_tasks, t))
            for t in range(problem.num_types)
        ]
        assert evs[0].probability <= evs[-1].probability

    def test_empty_batch(self, problem):
        assert len(VectorizedBackend().evaluate_batch(problem, [])) == 0

    def test_wrong_state_length_rejected(self, problem):
        with pytest.raises(SolverError):
            VectorizedBackend().evaluate(problem, PlanState.uniform(3, 0))

    def test_out_of_range_type_rejected(self, problem):
        state = PlanState.uniform(problem.num_tasks, problem.num_types + 3)
        with pytest.raises(SolverError):
            VectorizedBackend().evaluate(problem, state)

    def test_negative_type_rejected(self, problem):
        # PlanState itself refuses negative indices, but a StateBlock's
        # constructor trusts its matrix, so build a corrupted block: the
        # backend must still reject it instead of silently wrapping
        # around to the most expensive type (regression).
        corrupt = StateBlock(np.full((1, problem.num_tasks), -1, dtype=np.int64))
        with pytest.raises(SolverError, match="negative"):
            VectorizedBackend().makespan_samples(problem, corrupt)

    @pytest.mark.parametrize("backend", [VectorizedBackend, ScalarBackend])
    @pytest.mark.parametrize("past_end", [False, True])
    def test_type_index_outside_catalog_rejected(self, problem, backend, past_end):
        # Regression: the referee wrapped -1 round to the last type and
        # raised a bare IndexError for K.
        index = problem.num_types if past_end else -1
        corrupt = StateBlock(np.full((1, problem.num_tasks), index, dtype=np.int16))
        with pytest.raises(SolverError, match="negative" if index < 0 else "catalog"):
            backend().makespan_samples(problem, corrupt)

    def test_agreement_on_random_dags(self, catalog, runtime_model):
        for seed in range(3):
            wf = random_dag(10, edge_prob=0.3, seed=seed)
            prob = CompiledProblem.compile(
                wf, catalog, deadline=500.0, num_samples=16, seed=seed,
                runtime_model=runtime_model,
            )
            rng = np.random.default_rng(seed)
            states = [PlanState(rng.integers(0, 4, size=10)) for _ in range(4)]
            assert np.array_equal(
                VectorizedBackend().makespan_samples(prob, states),
                ScalarBackend().makespan_samples(prob, states),
            )


class TestSamplePrecision:
    """The samples are stored in single precision; the deadline test is not."""

    def test_compile_stores_read_only_float32(self, problem):
        for arr in (problem.tensor, problem.tensor_taskmajor):
            assert arr.dtype == np.float32 and not arr.flags.writeable
        assert problem.with_deadline(999.0).tensor is problem.tensor
        assert problem.with_sample_prefix(16).tensor.dtype == np.float32

    def test_faults_inflate_in_float64_then_round_once(self, problem):
        faults = FaultModel(task_failure_rate=0.1)
        faulty = problem.with_faults(faults)
        want = faults.inflate(problem.tensor, faulty.recovery).astype(np.float32)
        assert faulty.tensor.dtype == np.float32
        assert np.array_equal(faulty.tensor, want)

    @pytest.mark.parametrize("backend", [VectorizedBackend, ScalarBackend])
    def test_makespan_rows_follow_the_tensor(self, problem, backend):
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(2)]
        assert backend().makespan_samples(problem, states).dtype == np.float32

    def test_memo_rows_follow_the_tensor(self, problem):
        backend = VectorizedBackend()
        ev = backend.evaluate_batch(problem, [PlanState.uniform(problem.num_tasks, 0)])
        assert ev.mean_makespan.dtype == np.float64
        ((row,),) = (rows.values() for rows in backend.cache._rows.values())
        assert row.dtype == np.float32


def _one_task_problem(catalog, seconds: float, deadline: float) -> CompiledProblem:
    workflow = Workflow("one", [Task(task_id="t")], [])
    parents, levels = workflow_layout(workflow)
    k = len(catalog)
    return CompiledProblem(
        workflow=workflow,
        catalog=catalog,
        mean_times=np.full((k, 1), seconds),
        tensor=np.full((k, 4, 1), seconds),
        prices=np.arange(1.0, k + 1.0),
        parent_indices=parents,
        deadline=deadline,
        required_probability=0.5,
        levels=levels,
    )


class TestDeadlineComparedInFloat64:
    """A float32 makespan m with D < m <= float32(D) misses deadline D.

    Against a Python-float deadline NumPy casts D to float32 (NEP 50)
    and counts such a sample as a hit.
    """

    DEADLINE = 0.1  # float32(0.1) = 0.10000000149... > 0.1

    @pytest.fixture
    def tie(self, catalog):
        # Python floats on both sides: ``np.float32(D) > D`` would itself
        # compare in float32.
        problem = _one_task_problem(catalog, self.DEADLINE, self.DEADLINE)
        makespan = float(problem.tensor[0, 0, 0])
        assert self.DEADLINE < makespan <= float(np.float32(self.DEADLINE))
        return problem, [PlanState.uniform(1, 0)]

    @pytest.mark.parametrize("backend", [VectorizedBackend, ScalarBackend])
    def test_evaluate_batch_counts_a_miss(self, tie, backend):
        problem, states = tie
        ev = backend().evaluate_batch(problem, states)
        assert ev.probability[0] == 0.0 and not ev.feasible[0]

    @pytest.mark.parametrize("backend", [VectorizedBackend, ScalarBackend])
    def test_screen_probabilities_count_a_miss(self, tie, backend):
        problem, states = tie
        assert backend().screen_probabilities(problem, states, prefix=2)[0] == 0.0


def _level_reference(problem: CompiledProblem, assign: np.ndarray) -> np.ndarray:
    """``(B, S)`` makespans, one state at a time through ``problem.levels.makespan``."""
    order = problem.levels.order
    tm = problem.tensor_taskmajor
    return np.stack([problem.levels.makespan(tm[row[order], order]) for row in assign])


class TestFullKernelScratchIsBounded:
    """The full kernel runs a batch in chunks of one finish-matrix byte
    budget, so the scratch pool it leaves does not grow with the batch.

    The bound: a chunk's finish matrix is at most ``_FULL_BYTES`` once one
    state fits in it; its lane block and two scratch blocks are no larger
    (a level is at most N rows), and the wide-fan-in gather is one tile or
    one task.  So the pool stays under ``4 * _FULL_BYTES + _TILE_BYTES``
    (4.5 MB) whatever B is; a kernel sized by the whole batch leaves 72 MB
    after 64 Montage-8 states.
    """

    BOUND = 4 * backends_module._FULL_BYTES + backends_module._TILE_BYTES

    @staticmethod
    def _block(problem, b, seed=0):
        rng = np.random.default_rng(seed)
        return StateBlock(rng.integers(0, problem.num_types, (b, problem.num_tasks)))

    def test_montage8_pool_does_not_grow_with_the_batch(self, catalog):
        problem = CompiledProblem.compile(
            montage(degrees=8.0, seed=3), catalog, deadline=3600.0, num_samples=150, seed=1
        )
        backend = VectorizedBackend()
        block = self._block(problem, 64)
        first = backend.makespan_samples(problem, StateBlock(block.assign[:4]))
        small = backend.pool.nbytes()
        rows = backend.makespan_samples(problem, block)
        assert backend.pool.nbytes() == small <= self.BOUND
        reference = _level_reference(problem, block.assign)
        assert np.array_equal(first, reference[:4])
        assert np.array_equal(rows, reference)

        probs = backend.screen_probabilities(problem, block, 32)
        assert backend.pool.nbytes() <= self.BOUND
        sp = problem.with_sample_prefix(32)
        expected = np.mean(_level_reference(sp, block.assign) <= np.float64(sp.deadline), axis=1)
        assert np.array_equal(probs, expected)

    def test_montage1_chunks_match_scalar(self, catalog):
        problem = CompiledProblem.compile(
            montage(degrees=1.0, seed=3), catalog, deadline=900.0, num_samples=150, seed=1
        )
        # 56 states fit the budget at N = 30, S = 150: 64 cross one boundary.
        chunk = backends_module._FULL_BYTES // ((problem.num_tasks + 1) * 150 * 4)
        assert chunk < 64
        backend = VectorizedBackend()
        block = self._block(problem, 64, seed=1)
        rows = backend.makespan_samples(problem, block)
        assert np.array_equal(rows, _level_reference(problem, block.assign))
        assert np.array_equal(rows, ScalarBackend().makespan_samples(problem, block))
