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
        assert ctx.stats() == {
            "entries": 1, "nbytes": kept.tensor.nbytes + kept.tensor_taskmajor.nbytes,
        }

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
            "makespan", "screen", "moments", "scratch", "compiled_problems",
        }
        first = deco.schedule(large, "medium").decision_dict()
        assert deco.last_result.analytic_evals > 0
        assert set(deco.cache_stats()) == {
            "makespan", "screen", "moments", "scratch", "compiled_problems", "analytic",
        }
        assert deco.cache_stats()["scratch"]["nbytes"] == deco.backend.pool.nbytes() > 0
        deco.clear_caches()
        backend = deco.backend
        assert len(backend.cache) == len(backend.eval_context) == len(backend.pool) == 0
        assert deco.cache_stats()["scratch"] == {"buffers": 0, "nbytes": 0}
        assert deco.schedule(large, "medium").decision_dict() == first
