"""Incremental Monte Carlo evaluation: bit-identity, caches, screening.

The contract under test (DESIGN.md §10): delta propagation from dirty
levels and two-stage sample-fidelity screening are *pure* evaluation
optimizations -- every makespan sample, every plan decision, and every
bench number is ``np.array_equal``-identical to the full pass.
"""

import numpy as np
import pytest

from repro.engine import Deco
from repro.engine.plan import deadline_presets
from repro.parallel.workers import solve_plans
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.cache import EvalContext, MakespanCache
from repro.solver.search import GenericSearch
from repro.solver.state import PlanState
from repro.workflow.generators import montage, random_dag

SAMPLES = 48


@pytest.fixture(scope="module")
def problem(catalog, runtime_model):
    wf = montage(degrees=1, seed=2)
    return CompiledProblem.compile(
        wf, catalog, deadline=4000.0, percentile=96.0, num_samples=SAMPLES,
        seed=5, runtime_model=runtime_model,
    )


def incremental_backend() -> VectorizedBackend:
    return VectorizedBackend(eval_context=EvalContext())


# Sample-token generation semantics ----------------------------------------


class TestSampleTokens:
    def test_fresh_compiles_get_distinct_tokens(self, catalog, runtime_model):
        wf = montage(degrees=1, seed=2)
        kwargs = dict(
            deadline=4000.0, percentile=96.0, num_samples=8, seed=5,
            runtime_model=runtime_model,
        )
        a = CompiledProblem.compile(wf, catalog, **kwargs)
        b = CompiledProblem.compile(wf, catalog, **kwargs)
        assert a.sample_token != b.sample_token

    def test_with_deadline_shares_the_tensor_and_token(self, problem):
        derived = problem.with_deadline(123.0)
        assert derived.sample_token == problem.sample_token
        assert derived.tensor is problem.tensor

    def test_tensor_rewrites_take_fresh_tokens(self, problem):
        prefix = problem.with_sample_prefix(16)
        assert prefix.sample_token != problem.sample_token
        assert prefix.num_samples == 16
        from repro.faults import FaultModel

        faulty = problem.with_faults(FaultModel(task_failure_rate=0.1))
        assert faulty.sample_token != problem.sample_token

    def test_prefix_is_a_strict_slice(self, problem):
        prefix = problem.with_sample_prefix(16)
        np.testing.assert_array_equal(prefix.tensor, problem.tensor[:, :16, :])


# EvalContext mechanics ----------------------------------------------------


class TestEvalContext:
    def test_get_put_peek_counters(self):
        ctx = EvalContext()
        frontier = np.arange(6.0).reshape(3, 2)
        assert ctx.get(1, b"k") is None
        assert not ctx.peek(1, b"k")
        ctx.put(1, b"k", frontier)
        assert ctx.peek(1, b"k")
        got = ctx.get(1, b"k")
        np.testing.assert_array_equal(got, frontier)
        assert not got.flags.writeable
        assert ctx.counters() == {"hits": 1, "misses": 1, "entries": 1}
        # The slot also stores the zero sentinel row.
        assert ctx.nbytes() == frontier.nbytes + frontier[0].nbytes
        assert ctx.find(1, b"k") == 0 and ctx.slab(1).frontier(0)[-1].tolist() == [0.0, 0.0]

    def test_lru_eviction(self):
        ctx = EvalContext(max_entries=2)
        for i in range(3):
            ctx.put(0, bytes([i]), np.full((1, 1), float(i)))
        assert not ctx.peek(0, b"\x00")  # oldest evicted
        assert ctx.peek(0, b"\x01") and ctx.peek(0, b"\x02")
        # The evicted frontier's slot was reused in place.
        assert ctx.get(0, b"\x02").tolist() == [[2.0]] and ctx.find(0, b"\x02") == 0
        assert ctx.get(0, b"\x01").tolist() == [[1.0]]

    def test_tokens_of_one_shape_share_a_slab(self):
        # A warm engine's next same-sized workflow (a service worker's next
        # job) must land in the pages the last one touched, not a new mapping.
        ctx = EvalContext(max_entries=2)
        ctx.put(1, b"a", np.full((3, 2), 1.0))
        ctx.put(1, b"b", np.full((3, 2), 2.0))
        slab, held = ctx.slab(1), ctx.nbytes()
        ctx.put(2, b"a", np.full((3, 2), 3.0))  # evicts (1, a) into its slot
        assert ctx.slab(2) is slab and ctx.find(2, b"a") == 0
        assert ctx.get(1, b"b").tolist() == [[2.0, 2.0]] * 3
        assert ctx.get(2, b"a").tolist() == [[3.0, 3.0]] * 3
        assert ctx.nbytes() == held  # one slab, counted once, nothing new touched
        ctx.put(2, b"b", np.full((3, 2), 4.0))  # token 1's last frontier goes
        assert ctx.slab(1) is None and ctx.slab(2) is slab and ctx.nbytes() == held
        # Another shape gets a slab of its own.
        ctx.put(3, b"a", np.zeros((4, 2)))
        assert ctx.slab(3) is not slab and ctx.slab(3).stride == 5
        ctx.discard(2, b"b")
        assert ctx.slab(2) is None and len(ctx) == 1

    def test_invalid_capacity_rejected(self):
        from repro.common.errors import SolverError

        with pytest.raises(SolverError):
            EvalContext(max_entries=0)

    def test_screen_problem_is_memoized_per_token(self, problem):
        ctx = EvalContext()
        first = ctx.screen_problem(problem, 16)
        assert ctx.screen_problem(problem, 16) is first
        # A different prefix rebuilds the derivation.
        assert ctx.screen_problem(problem, 8) is not first
        # Screening rows must never mix with full-fidelity entries.
        assert first.sample_token != problem.sample_token

    def test_clear_drops_frontiers_and_screen_memo(self, problem):
        ctx = EvalContext()
        ctx.put(1, b"k", np.zeros((2, 2)))
        ctx.screen_problem(problem, 16)
        ctx.clear()
        assert len(ctx) == 0
        assert ctx.screen_problem(problem, 16).num_samples == 16


# Delta propagation bit-identity -------------------------------------------


def spread_children(problem, parent, batch=12):
    """Single-task edits spread across the DAG, alternating direction."""
    n = len(parent)
    children = []
    stride = max(1, n // batch)
    for j, i in enumerate(range(0, n, stride)):
        child = parent.promote(i, problem.num_types) if j % 2 else parent.demote(i)
        if child is not None:
            children.append(child)
        if len(children) == batch:
            break
    return children


class TestDeltaBitIdentity:
    @pytest.mark.parametrize("degrees", [1, 4, 8])
    @pytest.mark.parametrize("seed", [5, 21])
    def test_group_delta_equals_full_kernel(self, catalog, runtime_model, degrees, seed):
        wf = montage(degrees=degrees, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=1e9, percentile=96.0, num_samples=SAMPLES,
            seed=seed, runtime_model=runtime_model,
        )
        parent = PlanState.uniform(len(wf), 1)
        children = spread_children(problem, parent)
        backend = incremental_backend()
        backend.ensure_frontier(problem, parent)
        inc = backend.makespan_samples(problem, children)
        ref = VectorizedBackend().makespan_samples(problem, children)
        np.testing.assert_array_equal(inc, ref)
        stats = backend.delta_stats()
        assert stats["states_incremental"] == len(children)
        assert stats["rows_recomputed"] < stats["rows_total"]

    def test_single_child_and_chained_frontiers(self, problem):
        backend = incremental_backend()
        parent = PlanState.uniform(problem.num_tasks, 1)
        backend.ensure_frontier(problem, parent)
        child = parent.promote(3, problem.num_types)
        # ensure_frontier on the child derives its frontier from the
        # parent's via the single-state delta path...
        backend.ensure_frontier(problem, child)
        grand = child.demote(0)
        inc = backend.makespan_samples(problem, [grand])
        ref = VectorizedBackend().makespan_samples(problem, [grand])
        np.testing.assert_array_equal(inc, ref)

    def test_multi_dirty_states(self, problem):
        backend = incremental_backend()
        parent = PlanState.uniform(problem.num_tasks, 1)
        backend.ensure_frontier(problem, parent)
        arr = parent.assignment.copy()
        arr[[0, 7, 19]] = [2, 0, 3]
        child = PlanState(arr, parent_key=parent.key, dirty=(0, 7, 19))
        inc = backend.makespan_samples(problem, [child])
        ref = VectorizedBackend().makespan_samples(problem, [child])
        np.testing.assert_array_equal(inc, ref)

    def test_mixed_batch_orphans_fall_back_to_full(self, problem):
        backend = incremental_backend()
        parent = PlanState.uniform(problem.num_tasks, 1)
        backend.ensure_frontier(problem, parent)
        with_lineage = parent.promote(2, problem.num_types)
        orphan = PlanState.uniform(problem.num_tasks, 2)  # no lineage
        stranger = PlanState.uniform(problem.num_tasks, 0).promote(
            1, problem.num_types
        )  # lineage, but its parent frontier is not cached
        batch = [with_lineage, orphan, stranger]
        inc = backend.makespan_samples(problem, batch)
        ref = VectorizedBackend().makespan_samples(problem, batch)
        np.testing.assert_array_equal(inc, ref)
        stats = backend.delta_stats()
        assert stats["states_incremental"] == 1
        assert stats["states_full"] == 2

    def test_incremental_flag_off_bypasses_delta(self, problem):
        backend = incremental_backend()
        parent = PlanState.uniform(problem.num_tasks, 1)
        backend.ensure_frontier(problem, parent)
        child = parent.promote(0, problem.num_types)
        backend.makespan_samples(problem, [child], incremental=False)
        assert backend.delta_stats()["states_incremental"] == 0

    @pytest.mark.parametrize("seed", [0, 13])
    def test_random_dags_roundtrip(self, catalog, runtime_model, seed):
        wf = random_dag(15, edge_prob=0.3, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=1e9, percentile=96.0, num_samples=16,
            seed=seed, runtime_model=runtime_model,
        )
        parent = PlanState.uniform(len(wf), 1)
        backend = incremental_backend()
        backend.ensure_frontier(problem, parent)
        children = [
            c
            for i in range(len(wf))
            for c in [parent.promote(i, problem.num_types), parent.demote(i)]
            if c is not None
        ]
        inc = backend.makespan_samples(problem, children)
        ref = VectorizedBackend().makespan_samples(problem, children)
        np.testing.assert_array_equal(inc, ref)


# Two-stage screening ------------------------------------------------------


class TestScreening:
    def test_screen_probabilities_match_prefix_problem(self, problem):
        backend = incremental_backend()
        states = [PlanState.uniform(problem.num_tasks, t % 4) for t in range(6)]
        probs = backend.screen_probabilities(problem, states, prefix=16)
        prefix_problem = problem.with_sample_prefix(16)
        mk = VectorizedBackend().makespan_samples(prefix_problem, states)
        expected = (mk <= problem.deadline).mean(axis=1)
        np.testing.assert_allclose(probs, expected)

    def test_screening_rows_stay_out_of_the_caches(self, problem):
        cache = MakespanCache()
        ctx = EvalContext()
        backend = VectorizedBackend(cache=cache, eval_context=ctx)
        states = [PlanState.uniform(problem.num_tasks, 0)]
        backend.screen_probabilities(problem, states, prefix=16)
        assert len(cache) == 0
        assert len(ctx) == 0


# End-to-end search equivalence --------------------------------------------


SEARCH_CASES = [(1.0, 3), (1.0, 11), (4.0, 3), (4.0, 11), (8.0, 7)]


class TestSearchEquivalence:
    @pytest.mark.parametrize("degrees,seed", SEARCH_CASES)
    def test_plans_identical_with_engine_on_or_off(
        self, catalog, runtime_model, degrees, seed
    ):
        """The delta engine engages through the backend's ``EvalContext``:
        a backend built without one sends every evaluation through the
        full kernel, and the search must not be able to tell."""
        wf = montage(degrees=degrees, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=deadline_presets(wf, catalog, runtime_model).medium,
            percentile=96.0, num_samples=64, seed=seed, runtime_model=runtime_model,
        )
        on = GenericSearch(incremental_backend(), max_evaluations=200).solve(problem)
        off = GenericSearch(VectorizedBackend(), max_evaluations=200).solve(problem)
        np.testing.assert_array_equal(on.best_state.assignment, off.best_state.assignment)
        assert on.best_eval == off.best_eval
        assert on.trace == off.trace
        # (On Montage-8 tier 0 settles every candidate before the kernel.)
        assert on.states_incremental > 0 or on.analytic_evals > 0
        assert off.states_incremental == 0
        # Screened-out candidates still consume the evaluation budget.
        assert on.evaluations >= on.exact_evals
        assert on.screened_out == off.screened_out

    def test_worker_fanout_identical(self, catalog):
        wf = montage(degrees=1.0, seed=7)
        deco = Deco(catalog, seed=7, num_samples=64, max_evaluations=150)
        jobs = [(k, wf, "medium", 96.0) for k in range(2)]
        serial = solve_plans(deco, jobs, workers=1)
        fanned = solve_plans(deco, jobs, workers=2)
        for k in serial:
            assert serial[k].decision_dict() == fanned[k].decision_dict()


# Deco cache surface -------------------------------------------------------


class TestDecoCacheSurface:
    def test_cache_stats_and_clear(self, catalog):
        deco = Deco(catalog, seed=3, num_samples=32, max_evaluations=80)
        wf = montage(degrees=1.0, seed=3)
        deco.schedule(wf, "medium", deadline_percentile=96.0)
        stats = deco.cache_stats()
        assert stats["makespan"]["entries"] > 0
        assert stats["makespan"]["nbytes"] > 0
        assert stats["frontier"]["entries"] > 0
        assert stats["compiled_problems"] == 1
        assert stats["delta"]["states_incremental"] > 0
        deco.clear_caches()
        stats = deco.cache_stats()
        assert stats["makespan"]["entries"] == 0
        assert stats["frontier"]["entries"] == 0
        assert stats["frontier"]["nbytes"] == 0
        assert stats["compiled_problems"] == 0
