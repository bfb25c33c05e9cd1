"""Sample tokens, tier 1's screening memo and the engine's cache report.

Screening is an evaluation shortcut with its own samples: a prefix of
the full tensor under a fresh sample token, so its rows never mix with
the full-fidelity memo's, and one memoized screening problem per base
token that lives until the token is forgotten.
"""

import numpy as np
import pytest

from repro.engine import Deco
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.cache import EvalContext
from repro.solver.state import PlanState
from repro.workflow.generators import cybershake, montage

SAMPLES = 48


@pytest.fixture(scope="module")
def problem(catalog, runtime_model):
    wf = montage(degrees=1, seed=2)
    return CompiledProblem.compile(
        wf, catalog, deadline=4000.0, percentile=96.0, num_samples=SAMPLES,
        seed=5, runtime_model=runtime_model,
    )


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


# The screening-problem memo -----------------------------------------------


class TestScreenMemo:
    def test_screen_problem_is_memoized_per_token(self, problem):
        ctx = EvalContext()
        first = ctx.screen_problem(problem, 16)
        assert ctx.screen_problem(problem, 16) is first
        # A different prefix rebuilds the derivation.
        assert ctx.screen_problem(problem, 8) is not first
        # Screening rows must never mix with full-fidelity entries.
        assert first.sample_token != problem.sample_token

    def test_forget_drops_one_token(self, problem):
        from repro.faults import FaultModel

        other = problem.with_faults(FaultModel(task_failure_rate=0.1))
        ctx = EvalContext()
        kept = ctx.screen_problem(other, 16)
        ctx.screen_problem(problem, 16)
        ctx.forget(problem.sample_token)
        ctx.forget(99)  # a token with nothing held
        assert ctx.screen_problem(other, 16) is kept
        assert ctx.stats() == {"entries": 1, "nbytes": kept.tensor_taskmajor.nbytes}

    def test_clear_drops_the_screen_memo(self, problem):
        ctx = EvalContext()
        first = ctx.screen_problem(problem, 16)
        ctx.clear()
        assert len(ctx) == 0
        again = ctx.screen_problem(problem, 16)
        assert again is not first and again.num_samples == 16


# Two-stage screening ------------------------------------------------------


class TestScreening:
    def test_screen_probabilities_match_prefix_problem(self, problem):
        backend = VectorizedBackend()
        states = [PlanState.uniform(problem.num_tasks, t % 4) for t in range(6)]
        probs = backend.screen_probabilities(problem, states, prefix=16)
        prefix_problem = problem.with_sample_prefix(16)
        mk = VectorizedBackend().makespan_samples(prefix_problem, states)
        expected = (mk <= problem.deadline).mean(axis=1)
        np.testing.assert_allclose(probs, expected)

    def test_screening_rows_stay_out_of_the_makespan_memo(self, problem):
        ctx = EvalContext()
        backend = VectorizedBackend(eval_context=ctx)
        states = [PlanState.uniform(problem.num_tasks, 0)]
        backend.screen_probabilities(problem, states, prefix=16)
        assert len(backend.cache) == 0
        assert len(ctx) == 1


# Deco cache surface -------------------------------------------------------


class TestDecoCacheSurface:
    def test_cache_stats_and_clear(self, catalog):
        deco = Deco(catalog, seed=3, num_samples=64, max_evaluations=80)
        wf = montage(degrees=1.0, seed=3)
        deco.schedule(wf, "medium", deadline_percentile=96.0)
        assert deco.last_result.screen_evals > 0
        stats = deco.cache_stats()
        assert stats["makespan"]["entries"] > 0
        assert stats["makespan"]["nbytes"] > 0
        assert stats["screen"]["entries"] == 1 and stats["screen"]["nbytes"] > 0
        assert stats["compiled_problems"] == 1
        deco.clear_caches()
        stats = deco.cache_stats()
        assert stats["makespan"]["entries"] == 0
        assert stats["screen"] == {"entries": 0, "nbytes": 0}
        assert stats["compiled_problems"] == 0

    def test_stats_come_from_the_backend_and_the_search(self, catalog):
        """The keys of a ``gpu`` engine's report, and a clear that empties
        the backend's memos without moving the next plan."""
        deco = Deco(catalog, seed=3, num_samples=32, max_evaluations=80)
        small, large = montage(degrees=1.0, seed=3), cybershake(300, seed=3)
        deco.schedule(small, "medium")
        assert set(deco.cache_stats()) == {
            "makespan", "screen", "moments", "expansions", "scratch", "compiled_problems",
        }
        first = deco.schedule(large, "medium").decision_dict()
        assert deco.last_result.analytic_evals > 0
        assert set(deco.cache_stats()) == {
            "makespan", "screen", "moments", "expansions", "scratch", "compiled_problems",
            "analytic",
        }
        assert deco.cache_stats()["scratch"]["nbytes"] == deco.backend.pool.nbytes() > 0
        deco.clear_caches()
        backend = deco.backend
        assert len(backend.cache) == len(backend.eval_context) == len(backend.pool) == 0
        assert deco.cache_stats()["scratch"] == {"buffers": 0, "nbytes": 0}
        assert deco.schedule(large, "medium").decision_dict() == first


# Tier 1's prefix rows ------------------------------------------------------


class TestPrefixRows:
    """Screening rows come through ``EvalContext.rows`` under the base token."""

    def test_rows_are_keyed_by_the_base_token(self, problem):
        backend = VectorizedBackend()
        states = [PlanState.uniform(problem.num_tasks, t % 4) for t in range(6)]
        first = backend.screen_probabilities(problem, states, prefix=16)
        rows = backend.eval_context.rows
        assert set(rows._rows) == {problem.sample_token} and len(rows) == 4
        # Another deadline, same tensor: every row is a hit, and the
        # probability is the screening problem's, as before.
        again = backend.screen_probabilities(problem.with_deadline(123.0), states, prefix=16)
        assert rows.misses == rows.hits == 6
        np.testing.assert_array_equal(again, first)
        assert len(backend.cache) == 0  # tier 2's memo and counters untouched
        assert (backend.cache.hits, backend.cache.misses) == (0, 0)

    def test_a_new_prefix_length_drops_the_rows(self, problem):
        backend = VectorizedBackend()
        states = [PlanState.uniform(problem.num_tasks, t) for t in range(3)]
        backend.screen_probabilities(problem, states, prefix=16)
        probs = backend.screen_probabilities(problem, states, prefix=8)
        rows = backend.eval_context.rows
        assert rows.misses == 6 and len(rows) == 3
        mk = VectorizedBackend().makespan_samples(problem.with_sample_prefix(8), states)
        np.testing.assert_array_equal(probs, (mk <= np.float64(problem.deadline)).mean(axis=1))

    def test_forget_and_clear_drop_the_rows(self, problem):
        backend = VectorizedBackend()
        states = [PlanState.uniform(problem.num_tasks, 1)]
        backend.screen_probabilities(problem, states, prefix=16)
        backend.forget(problem.sample_token)
        assert len(backend.eval_context.rows) == 0
        backend.screen_probabilities(problem, states, prefix=16)
        backend.release_buffers()
        assert len(backend.eval_context.rows) == 0

    def test_a_repeated_request_computes_no_prefix_row(self, catalog):
        deco = Deco(catalog, seed=3, num_samples=64, max_evaluations=300)
        wf = montage(degrees=1.0, seed=3)
        first = deco.schedule(wf, "medium", deadline_percentile=90.0).decision_dict()
        before = deco.cache_stats()["makespan"]
        again = deco.schedule(wf, "medium", deadline_percentile=90.0).decision_dict()
        after = deco.cache_stats()["makespan"]
        assert again == first and deco.last_result.screen_evals > 0
        assert after["prefix_misses"] == before["prefix_misses"]
        assert after["prefix_hits"] - before["prefix_hits"] == deco.last_result.screen_evals
        assert after["prefix_entries"] > 0 and after["prefix_nbytes"] > 0


# The search's edit memo ----------------------------------------------------


class TestExpansionReuse:
    """A warm engine expands the parents an earlier solve of the tensor
    expanded from ``GenericSearch.edit_memo``."""

    def test_a_repeated_request_expands_no_parent_anew(self, catalog):
        deco = Deco(catalog, seed=3, num_samples=64, max_evaluations=300)
        wf = montage(degrees=1.0, seed=3)
        first = deco.schedule(wf, "medium", deadline_percentile=90.0).decision_dict()
        before = deco._search.cache_stats()["expansions"]
        again = deco.schedule(wf, "medium", deadline_percentile=90.0).decision_dict()
        after = deco._search.cache_stats()["expansions"]
        assert again == first and deco.last_result.expansions > 0
        assert after["misses"] == before["misses"] == before["entries"]
        assert after["hits"] - before["hits"] == deco.last_result.expansions
        assert after["entries"] == before["entries"] > 0 and after["nbytes"] > 0

    def test_a_sweep_plans_as_without_the_memo(self, catalog):
        """A warm sweep decides as its twin whose edit memo is emptied
        before every request (a warm engine need not plan as a cold one:
        tier 1 keeps the deadline its screening problem was built with)."""
        deco, twin = (Deco(catalog, seed=3, num_samples=64, max_evaluations=300) for _ in range(2))
        wf = montage(degrees=1.0, seed=4)
        for deadline in ("tight", "medium", "loose"):
            for percentile in (96.0, 90.0):
                warm = deco.schedule(wf, deadline, deadline_percentile=percentile)
                twin._search.edit_memo.clear()
                again = twin.schedule(wf, deadline, deadline_percentile=percentile)
                assert again.decision_dict() == warm.decision_dict()
        assert deco._search.cache_stats()["expansions"]["hits"] > 0
        assert twin._search.cache_stats()["expansions"]["hits"] == 0

    def test_the_search_reports_the_memo_and_clears_it(self, catalog):
        deco = Deco(catalog, seed=3, num_samples=32, max_evaluations=80)
        deco.schedule(montage(degrees=1.0, seed=3), "medium")
        stats = deco._search.cache_stats()
        assert set(stats["expansions"]) == {"hits", "misses", "entries", "nbytes"}
        deco.clear_caches()
        assert deco._search.cache_stats()["expansions"]["entries"] == 0
        assert deco._search.cache_stats()["expansions"]["nbytes"] == 0
