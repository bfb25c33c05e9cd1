"""Tests for the makespan memoization cache."""

import numpy as np
import pytest

from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.cache import MakespanCache, ScratchPool
from repro.solver.state import PlanState
from repro.workflow.generators import montage, random_dag


@pytest.fixture(scope="module")
def problem(catalog, runtime_model):
    wf = montage(degrees=1, seed=2)
    return CompiledProblem.compile(
        wf, catalog, deadline=2000.0, percentile=96.0, num_samples=32,
        seed=5, runtime_model=runtime_model,
    )


class TestCacheMechanics:
    def test_miss_then_hit(self, problem):
        backend = VectorizedBackend()
        cache = backend.cache
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(3)]

        first = backend.evaluate_batch(problem, states)
        assert cache.counters() == {"hits": 0, "misses": 3, "entries": 3}

        second = backend.evaluate_batch(problem, states)
        assert cache.hits == 3 and cache.misses == 3
        assert list(first) == list(second)

    def test_partial_hit_assembles_in_order(self, problem):
        cache = MakespanCache()
        backend = VectorizedBackend()
        a, b, c = (PlanState.uniform(problem.num_tasks, t) for t in range(3))
        cache.fetch(problem, [a, c], backend.makespan_samples)
        mixed = cache.fetch(problem, [c, b, a], backend.makespan_samples)
        assert cache.hits == 2 and cache.misses == 3
        cold = VectorizedBackend().makespan_samples(problem, [c, b, a])
        np.testing.assert_array_equal(mixed, cold)

    def test_lru_eviction(self, problem, monkeypatch):
        monkeypatch.setattr(MakespanCache, "MAX_ENTRIES", 2)
        backend = VectorizedBackend()
        cache = backend.cache
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(3)]
        for st in states:
            backend.evaluate_batch(problem, [st])
        assert len(cache) == 2
        # Oldest (states[0]) was evicted; re-fetch misses again.
        backend.evaluate_batch(problem, [states[0]])
        assert cache.misses == 4

    def test_forget_drops_one_tokens_rows(self, problem, monkeypatch):
        monkeypatch.setattr(MakespanCache, "MAX_ENTRIES", 5)
        backend = VectorizedBackend()
        cache = backend.cache
        other = problem.with_sample_prefix(16)  # a tensor of its own token
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(3)]
        backend.evaluate_batch(problem, states)
        backend.evaluate_batch(other, states[:2])
        cache.forget(problem.sample_token)
        assert len(cache) == 2 and cache.nbytes() > 0
        backend.evaluate_batch(other, states[:2])
        assert cache.misses == 5  # the other token's rows stayed
        backend.evaluate_batch(problem, states)  # refilled, then evicted past the cap
        backend.evaluate_batch(problem, [PlanState.uniform(problem.num_tasks, 3)])
        assert len(cache) == 5 and cache.misses == 9
        cache.forget(other.sample_token)
        cache.forget(problem.sample_token)
        assert len(cache) == 0 and cache.nbytes() == 0

    def test_rows_are_copies_not_views(self, problem):
        """Cached rows own their memory: whatever the producer does with
        its output afterwards -- hand it out again as pooled scratch, or
        just drop it -- neither reaches the cache nor stays alive in it."""
        cache = MakespanCache()
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(3)]
        expected = VectorizedBackend().makespan_samples(problem, states)
        produced = []

        def compute(_problem, _missing):
            produced.append(expected.copy())
            return produced[-1]

        first = cache.fetch(problem, states, compute)
        produced[0][...] = 99.0  # the producer reuses its buffer
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(cache.fetch(problem, states, compute), expected)
        assert len(produced) == 1  # the second fetch was all hits
        for row in cache._rows[problem.sample_token].values():
            assert row.base is None and not row.flags.writeable
        assert cache.nbytes() == expected.nbytes + sum(len(st.key) for st in states)

    def test_nbytes_counts_each_entry_key_and_row(self, problem):
        """A state key is 2 bytes per task -- on a moment memo's 16-byte
        rows almost the whole footprint -- so ``nbytes`` counts it."""
        cache = MakespanCache()
        rng = np.random.default_rng(0)
        for _ in range(4):
            state = PlanState(rng.integers(0, problem.num_types, problem.num_tasks))
            before = cache.nbytes()
            row = cache.fetch(problem, [state], lambda _p, block: np.zeros((len(block), 2)))[0]
            assert cache.nbytes() - before >= len(state.key) + row.nbytes

    def test_clear_resets_entries_not_counters(self, problem):
        backend = VectorizedBackend()
        cache = backend.cache
        backend.evaluate_batch(problem, [PlanState.uniform(problem.num_tasks, 0)])
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1


class TestWithDeadlineReuse:
    """The point of the cache: ``with_deadline`` sweeps reuse samples."""

    def test_derived_problem_hits(self, problem):
        backend = VectorizedBackend()
        cache = backend.cache
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(4)]
        backend.evaluate_batch(problem, states)
        derived = problem.with_deadline(123.0, percentile=80.0)
        backend.evaluate_batch(derived, states)
        assert cache.hits == 4 and cache.misses == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_evals_match_cold_evals(self, catalog, runtime_model, seed):
        """StateEvals through the warm cache == cold-backend StateEvals."""
        wf = random_dag(18, edge_prob=0.25, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=3e3, percentile=92.0, num_samples=16,
            seed=seed, runtime_model=runtime_model,
        )
        rng = np.random.default_rng(seed)
        states = [PlanState(rng.integers(0, problem.num_types, 18)) for _ in range(6)]

        warm = VectorizedBackend()
        warm.evaluate_batch(problem, states)  # populate
        derived = problem.with_deadline(1.5e3, percentile=96.0)
        cached_evals = warm.evaluate_batch(derived, states)
        cold_evals = VectorizedBackend().evaluate_batch(derived, states)
        assert warm.cache.hits >= len(states)
        for got, want in zip(cached_evals, cold_evals):
            assert got == want

    def test_different_tensor_does_not_hit(self, catalog, runtime_model, problem):
        other = CompiledProblem.compile(
            problem.workflow, catalog, deadline=2000.0, percentile=96.0,
            num_samples=32, seed=6, runtime_model=runtime_model,
        )
        backend = VectorizedBackend()
        cache = backend.cache
        st = PlanState.uniform(problem.num_tasks, 0)
        backend.evaluate_batch(problem, [st])
        backend.evaluate_batch(other, [st])
        assert cache.hits == 0 and cache.misses == 2


class TestScratchPool:
    @pytest.mark.parametrize(
        "dtype", [None, np.float64, bool, np.int64, "float32", np.dtype(np.float32)]
    )
    @pytest.mark.parametrize(
        "shape", [(), (7,), (3, 4, 5), (0,), (0, 3), (3, 0, 2), (np.int64(2), np.intp(3))]
    )
    def test_take_is_shaped_like_np_empty(self, shape, dtype):
        pool = ScratchPool()
        got = pool.take("buf", shape) if dtype is None else pool.take("buf", shape, dtype)
        want = np.empty(shape, dtype=np.float64 if dtype is None else dtype)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous and got.flags.writeable

    def test_one_backing_per_name_and_dtype_grow_only(self):
        pool = ScratchPool()
        big = pool.take("a", (4, 6))
        small = pool.take("a", (2, 3))
        assert np.shares_memory(big, small) and len(pool) == 1
        assert not np.shares_memory(pool.take("a", (5, 6)), big)  # grew: new backing
        assert pool.nbytes() == 30 * 8
        pool.take("a", (2, 3), bool)
        pool.take("b", (2, 3))
        assert len(pool) == 3
        # The default dtype and its spellings name the same buffer.
        assert np.shares_memory(pool.take("b", (6,)), pool.take("b", (6,), "float64"))

    def test_buffer_cap_drops_the_pool(self, monkeypatch):
        monkeypatch.setattr(ScratchPool, "MAX_BUFFERS", 2)
        pool = ScratchPool()
        pool.take("a", (1,))
        pool.take("b", (1,))
        pool.take("c", (1,))
        assert len(pool) == 1
