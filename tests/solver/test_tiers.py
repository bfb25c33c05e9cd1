"""The beam loop over its three tiers, driven through the in-process evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.instance_types import ec2_catalog
from repro.engine.plan import deadline_presets
from repro.faults import FaultModel
from repro.solver.backends import CompiledProblem
from repro.solver.cache import MakespanCache
from repro.solver.search import GenericSearch, LocalEvaluator
from repro.solver.state import PlanState, StateBlock
from repro.solver.tiers import AnalyticTier, PrefixTier
from repro.workflow.generators import montage
from repro.workflow.runtime_model import RuntimeModel

CATALOG = ec2_catalog()
MODEL = RuntimeModel(CATALOG)


class RecordingEvaluator(LocalEvaluator):
    """The in-process evaluator, logging ``(call, state keys)`` per call."""

    def __init__(self, search, problem):
        super().__init__(search, problem)
        self.calls: list[tuple[str, list[bytes]]] = []

    def moments(self, block):
        self.calls.append(("moments", list(block.keys)))
        return super().moments(block)

    def screen(self, block):
        self.calls.append(("screen", list(block.keys)))
        return super().screen(block)

    def evaluate(self, block):
        self.calls.append(("evaluate", list(block.keys)))
        return super().evaluate(block)


@pytest.fixture(scope="module")
def recorded():
    """Montage-8 (tier 0 on), 64 samples (tier 1 on), ending on a tier-0 incumbent."""
    wf = montage(degrees=8.0, seed=1)
    problem = CompiledProblem.compile(
        wf, CATALOG, deadline=deadline_presets(wf, CATALOG, MODEL).medium,
        percentile=90.0, num_samples=64, seed=7, runtime_model=MODEL,
    )
    search = GenericSearch(max_evaluations=300)
    evaluator = RecordingEvaluator(search, problem)
    return search.solve(problem, evaluator=evaluator), evaluator.calls


def test_every_candidate_meets_the_tiers_in_order(recorded):
    result, calls = recorded
    order = {"moments": 0, "screen": 1, "evaluate": 2}
    seen: dict[bytes, list[int]] = {}
    for call, keys in calls[:-1]:  # the last call is the referee (below)
        for key in keys:
            seen.setdefault(key, []).append(order[call])
    for tiers in seen.values():
        assert tiers == sorted(set(tiers)), tiers  # 0 -> 1 -> 2, each at most once
    assert any(tiers == [0, 1, 2] for tiers in seen.values())
    assert result.analytic_evals and result.screen_evals and result.exact_evals


def test_tier0_incumbent_is_refereed_once_by_tier2(recorded):
    result, calls = recorded
    best = result.best_state.key
    assert result.analytic_accepted > 0
    assert calls[-1] == ("evaluate", [best])
    assert [call for call, keys in calls if best in keys] == ["moments", "evaluate"]
    assert result.best_eval.source != "analytic"
    assert result.exact_evals == sum(len(keys) for call, keys in calls if call == "evaluate")


class StubEvaluator:
    """Prefix probabilities of 1 for every state: tier 1 never drops anything."""

    workers = 1

    def __init__(self):
        self.screened = 0

    def screen(self, states):
        self.screened += 1
        return np.ones(len(states))


def test_a_screening_tier_stands_down_after_two_dry_batches():
    wf = montage(degrees=1.0, seed=2)
    problem = CompiledProblem.compile(wf, CATALOG, deadline=1e6, num_samples=64)
    seed = StateBlock.from_states([PlanState.uniform(len(wf), 0)])
    incumbent = GenericSearch().evaluator(problem).evaluate(seed)[0]
    stub = StubEvaluator()
    tier = PrefixTier(stub)
    batch = StateBlock.from_states(PlanState.uniform(len(wf), t) for t in range(problem.num_types))
    for _ in range(4):
        settled, evals, survivors = tier.settle(problem, batch, incumbent.feasible)
        assert len(settled) == len(evals) == 0
        assert survivors.tolist() == list(range(len(batch)))
    assert stub.screened == PrefixTier.DRY_LIMIT
    assert tier.counts == {"screen_evals": 2 * len(batch), "screened_out": 0}


class CountingEvaluator(LocalEvaluator):
    """The in-process evaluator, counting the rows tier 0 asks moments for."""

    def __init__(self, search, problem):
        super().__init__(search, problem)
        self.rows = 0

    def moments(self, block):
        self.rows += len(block)
        return super().moments(block)


class TestMomentMemo:
    """Tier 0 reads moments through the search's memo, keyed by sample token."""

    @pytest.fixture(scope="class")
    def setting(self):
        wf = montage(degrees=1.0, seed=3)
        problem = CompiledProblem.compile(
            wf, CATALOG, deadline=deadline_presets(wf, CATALOG, MODEL).medium,
            percentile=90.0, num_samples=40, seed=7, runtime_model=MODEL,
        )
        rng = np.random.default_rng(5)
        batch = StateBlock.from_states(
            PlanState(rng.integers(0, problem.num_types, problem.num_tasks)) for _ in range(24)
        )
        return problem, batch

    @staticmethod
    def classify(search, memo, problem, batch):
        """One fresh tier (tiers are per solve) over ``batch``; the rows it requested."""
        evaluator = CountingEvaluator(search, problem)
        tier = AnalyticTier(evaluator, 0, search.backend, memo)
        settled = tier.settle(problem, batch, True)
        assert tier.counts["analytic_hits"] == len(batch) - evaluator.rows
        return settled, evaluator.rows

    def test_second_pass_is_identical_and_requests_nothing(self, setting):
        problem, batch = setting
        search, memo = GenericSearch(), MakespanCache()
        (settled, evals, survivors), asked = self.classify(search, memo, problem, batch)
        (settled2, evals2, survivors2), again = self.classify(search, memo, problem, batch)
        assert (asked, again) == (len(batch), 0)
        assert len(settled)  # the pass decided something
        assert np.array_equal(settled, settled2) and np.array_equal(survivors, survivors2)
        for field in ("cost", "probability", "feasible", "mean_makespan", "source"):
            assert np.array_equal(getattr(evals, field), getattr(evals2, field))

    def test_deadline_derivation_hits_and_fault_derivation_misses(self, setting):
        problem, batch = setting
        search, memo = GenericSearch(), MakespanCache()
        self.classify(search, memo, problem, batch)
        looser = problem.with_deadline(problem.deadline * 1.2, 96.0)
        _, asked = self.classify(search, memo, looser, batch)
        assert asked == 0
        faulty = problem.with_faults(FaultModel(task_failure_rate=0.05))
        _, asked = self.classify(search, memo, faulty, batch)
        assert asked == len(batch)
