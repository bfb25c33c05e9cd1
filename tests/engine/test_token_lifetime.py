"""A warm engine's evaluation state lives as long as its problems do.

Every memo keyed by ``sample_token`` -- the makespan rows, tier 0's
moment rows and calibrations and tier 1's screening problems -- holds
only tokens of problems still in ``Deco._problems``: evicting a
compiled problem forgets its token, and a solve whose problem
no memo keeps (``solve_program``, ``schedule(faults=...)``) forgets its
own when it ends.  Forgetting is a memo drop, so plans do not move, and
what the memos are for -- a sweep's repeated request -- keeps working.
"""

from __future__ import annotations

from repro.engine.deco import Deco
from repro.faults.model import FaultModel
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.workflow.generators import cybershake, montage

# 64 samples: tier 1 (the prefix screen) runs, so screening problems exist.
ENGINE = dict(seed=7, num_samples=64, max_evaluations=300)


def resident_tokens(deco: Deco) -> dict[str, set[int]]:
    """The sample tokens each token-keyed memo of ``deco`` holds, read from its entries."""
    search, backend = deco._search, deco.backend
    ctx = backend.eval_context
    analytic = search._analytic
    return {
        "makespan": set(backend.cache._rows),
        "moments": set(search.moment_memo._rows),
        "calibrations": set(analytic._calibrations) if analytic is not None else set(),
        "screen": set(ctx._screen_problems),
    }


def live_tokens(deco: Deco) -> set[int]:
    return {problem.sample_token for _, problem in deco._problems.values()}


def assert_nothing_new(deco: Deco, before: dict[str, set[int]]) -> None:
    """No memo holds a token it did not hold in ``before``."""
    for memo, tokens in resident_tokens(deco).items():
        assert tokens <= before[memo], f"{memo} kept tokens {sorted(tokens - before[memo])}"


def assert_only_live(deco: Deco) -> None:
    live = live_tokens(deco)
    for memo, tokens in resident_tokens(deco).items():
        assert tokens <= live, f"{memo} holds tokens {sorted(tokens - live)} of no live problem"


class TestOnlyLiveTokensStay:
    def test_twelve_workflows_on_one_engine(self, catalog):
        deco = Deco(catalog, **ENGINE)
        for i in range(12):
            wf = montage(degrees=1.0, seed=100 + i)
            percentile = 96.0 if i % 2 == 0 else 90.0
            plan = deco.schedule(wf, "medium", deadline_percentile=percentile)
            assert len(deco._problems) <= Deco._PROBLEM_CACHE_SIZE
            assert_only_live(deco)
            fresh = Deco(catalog, **ENGINE).schedule(wf, "medium", deadline_percentile=percentile)
            assert plan.decision_dict() == fresh.decision_dict()
        # The memos were really used, and the live ones kept their entries.
        resident = resident_tokens(deco)
        assert resident["makespan"] and resident["screen"]

    def test_tier0_calibrations_go_with_their_problem(self, catalog, monkeypatch):
        monkeypatch.setattr(Deco, "_PROBLEM_CACHE_SIZE", 1)
        deco = Deco(catalog, seed=3, num_samples=32, max_evaluations=80)
        for seed in range(3):
            deco.schedule(cybershake(300, seed=seed), "medium")
            assert deco.last_result.analytic_evals > 0
            assert_only_live(deco)
            assert resident_tokens(deco)["calibrations"] == live_tokens(deco)

    def test_solve_program_leaves_nothing_behind(self, catalog):
        deco = Deco(catalog, **ENGINE)
        kept = montage(degrees=1.0, seed=1)
        deco.schedule(kept, "medium")
        before = resident_tokens(deco)
        wf = montage(degrees=1.0, seed=2)
        registry = ImportRegistry()
        registry.register_cloud("amazonec2", catalog)
        registry.register_workflow("wf", wf)
        source = scheduling_program(
            workflow="wf", percentile=96.0, deadline_seconds=deco.presets(wf).medium
        )
        plan = deco.solve_program(source, registry)
        assert deco.last_result.exact_evals > 0 and plan.evaluations > 0
        assert_nothing_new(deco, before)

    def test_fault_aware_schedule_leaves_nothing_behind(self, catalog):
        deco = Deco(catalog, **ENGINE)
        wf = montage(degrees=1.0, seed=3)
        deco.schedule(wf, "medium")
        before = resident_tokens(deco)
        deco.schedule(wf, "medium", faults=FaultModel(task_failure_rate=0.05))
        assert deco.last_result.exact_evals > 0
        assert_nothing_new(deco, before)


class TestReuseIsKept:
    def test_sweep_serves_the_repeated_request_from_the_memo(self, catalog):
        """A deadline x percentile sweep on one workflow object, then its
        first request again: the makespan-memo hits of every request,
        recorded before tokens were forgotten."""
        deco = Deco(catalog, **ENGINE)
        wf = montage(degrees=1.0, seed=5)
        requests = [(d, p) for d in ("tight", "medium", "loose") for p in (96.0, 90.0)]
        hits = []
        for deadline, percentile in requests + requests[:1]:
            deco.schedule(wf, deadline, deadline_percentile=percentile)
            hits.append(deco.last_result.cache_hits)
        assert hits == RECORDED_SWEEP_HITS
        assert deco.last_result.cache_misses == 0  # the repeat computes no row


#: ``cache_hits`` of each request of the sweep above (forgetting a
#: token's evaluation state with its problem moves none of them).
RECORDED_SWEEP_HITS = [0, 187, 42, 62, 47, 66, 263]
