"""Tests for dominance analysis: OpMask facts and search-identity.

The load-bearing property: running :class:`GenericSearch` with the
tensor-backed ``op_mask`` returns the *bit-identical* plan, cost and
evaluation count as running without it -- the mask only replaces the
tier-2 full-MC call for provably futile exploration promotes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dominance import (
    OpMask,
    compute_op_mask,
    futile_offpath_promotes,
    op_mask_from_bounds,
)
from repro.engine.plan import deadline_presets
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.search import GenericSearch
from repro.solver.state import PlanState
from repro.workflow.generators import epigenomics, ligo, montage, pipeline
from repro.workflow.runtime_model import RuntimeModel

WORKFLOWS = {
    "montage": lambda seed: montage(degrees=1.0, seed=seed),
    "ligo": lambda seed: ligo(num_tasks=60, seed=seed),
    "epigenomics": lambda seed: epigenomics(num_tasks=60, seed=seed),
}


def _compile(wf, catalog, seed, num_samples=64):
    """The bench's regime: the 'medium' critical-path deadline preset."""
    return CompiledProblem.compile(
        wf, catalog, deadline=deadline_presets(wf, catalog).medium,
        percentile=90.0, num_samples=num_samples, seed=seed,
        runtime_model=RuntimeModel(catalog),
    )


def _search(problem, prefix_screen: bool) -> GenericSearch:
    """The default search, or one whose tier 1 stays below its own size gate.

    The prefix screen runs only while the prefix undercuts the sample
    budget (``num_samples >= 2 * screen_samples``).  With the default
    32-sample prefix it rejects the futile promotes before tier 2, so
    the mask has nothing left to prune; a prefix as long as the budget
    lets them reach tier 2, where the mask acts.
    """
    screen_samples = 32 if prefix_screen else problem.num_samples
    return GenericSearch(max_evaluations=400, screen_samples=screen_samples)


class TestSearchIdentity:
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("prefix_screen", [True, False])
    def test_masked_search_is_bit_identical(self, catalog, name, seed, prefix_screen):
        problem = _compile(WORKFLOWS[name](seed), catalog, seed)
        mask = compute_op_mask(problem)
        results = [
            _search(problem, prefix_screen).solve(problem, op_mask=m)
            for m in (mask, None)
        ]
        on, off = results
        assert np.array_equal(on.best_state.assignment, off.best_state.assignment)
        assert on.best_eval.cost == off.best_eval.cost
        assert on.best_eval.probability == off.best_eval.probability
        assert on.evaluations == off.evaluations
        assert on.trace == off.trace
        assert off.pruned_candidates == 0


    def test_pruning_fires_on_ligo(self, catalog):
        """With tier 1 below its size gate, the mask is the only thing
        standing between futile promotes and full MC -- and it fires."""
        problem = _compile(ligo(num_tasks=60, seed=0), catalog, 0)
        mask = compute_op_mask(problem)
        result = _search(problem, prefix_screen=False).solve(problem, op_mask=mask)
        assert result.pruned_candidates > 0
        assert result.exact_evals + result.pruned_candidates >= result.evaluations


class TestOpMaskConstruction:
    def test_compute_op_mask_shape_and_token(self, catalog):
        problem = _compile(montage(degrees=1.0, seed=7), catalog, 7)
        mask = compute_op_mask(problem)
        assert mask.source == "tensor"
        assert mask.sample_token == problem.sample_token
        assert mask.num_types == problem.num_types
        assert mask.num_tasks == problem.num_tasks
        assert np.all(mask.lo <= mask.hi)
        assert mask.allows("promote")

    def test_unknown_op_rejected(self):
        z = np.zeros((2, 3))
        with pytest.raises(ValueError, match="unknown transformation ops"):
            OpMask(lo=z, hi=z, promote_cost_up=z.astype(bool),
                   disabled_ops=frozenset({"teleport"}))

    def test_single_type_disables_promote_family(self):
        lo = np.zeros((1, 4))
        mask = op_mask_from_bounds(
            lo=lo, hi=lo + 1.0, mean_times=lo + 0.5, prices=np.ones(1),
            parent_indices=((), (0,), (0,), (1, 2)),
        )
        assert not mask.allows("promote") and not mask.allows("demote")
        assert mask.allows("merge")

    def test_chain_disables_consolidation_family(self, catalog):
        from repro.analysis.bounds import parent_index_tuples

        wf = pipeline(num_tasks=5, seed=0)
        model = RuntimeModel(catalog)
        mean = model.mean_matrix(wf)
        parents = parent_index_tuples(wf)
        mask = op_mask_from_bounds(
            lo=mean * 0.5, hi=mean * 2.0, mean_times=mean,
            prices=np.ones(mean.shape[0]), parent_indices=parents,
        )
        assert not mask.allows("merge") and not mask.allows("co_schedule")
        assert mask.allows("promote")

    def test_stale_token_degrades_to_no_pruning(self, catalog):
        problem = _compile(ligo(num_tasks=60, seed=0), catalog, 0)
        mask = compute_op_mask(problem)
        stale = OpMask(
            lo=mask.lo, hi=mask.hi, promote_cost_up=mask.promote_cost_up,
            disabled_ops=mask.disabled_ops, source=mask.source,
            sample_token=(mask.sample_token or 0) + 1,
        )
        result = _search(problem, prefix_screen=False).solve(problem, op_mask=stale)
        assert result.pruned_candidates == 0


class TestFutilityPredicate:
    def test_futile_promotes_inherit_parent_evaluation(self, catalog):
        """The proof obligation behind the tier-2 skip: a flagged
        child's full backend evaluation agrees bitwise with the parent
        on probability, feasibility and mean makespan."""
        backend = VectorizedBackend()
        checked = 0
        for seed in range(3):
            problem = _compile(ligo(num_tasks=40, seed=seed), catalog, seed)
            mask = compute_op_mask(problem)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                state = PlanState(
                    rng.integers(0, problem.num_types - 1, problem.num_tasks)
                )
                futile = futile_offpath_promotes(
                    mask, problem.parent_indices, state.assignment
                )
                parent_ev = backend.evaluate_batch(problem, [state])[0]
                for i in np.flatnonzero(futile):
                    child = state.promote(int(i), problem.num_types)
                    assert child is not None
                    child_ev = backend.evaluate_batch(problem, [child])[0]
                    assert child_ev.probability == parent_ev.probability
                    assert child_ev.feasible == parent_ev.feasible
                    assert child_ev.mean_makespan == parent_ev.mean_makespan
                    checked += 1
        assert checked > 0, "no futile promote found -- predicate never fired"

    def test_never_flags_critical_tasks(self, catalog):
        """A task on every realization's critical path is never flagged."""
        problem = _compile(pipeline(num_tasks=6, seed=1), catalog, 1)
        mask = compute_op_mask(problem)
        state = PlanState.uniform(problem.num_tasks, 0)
        futile = futile_offpath_promotes(
            mask, problem.parent_indices, state.assignment
        )
        # On a chain every task is on the single path: nothing is futile.
        assert not futile.any()
