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

from collections import OrderedDict

import pytest

from repro.engine.compiler import export_problem_arrays, problem_fingerprint
from repro.engine.deco import Deco
from repro.faults.model import FaultModel
from repro.parallel import workers
from repro.parallel.arena import TensorArena, arena_available
from repro.solver.state import PlanState, StateBlock
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


@pytest.mark.skipif(not arena_available(), reason="POSIX shared memory unavailable")
class TestShardWorkerForgetsEvictedSegments:
    def test_only_live_segments_keep_tokens(self, catalog, monkeypatch):
        """A shard worker, run in process: five published workflows through
        the begin-solve prologue and one round of every job, while the
        worker keeps four attachments.  Its memos hold exactly the tokens
        of the attached segments' problems."""
        monkeypatch.setattr(workers, "_DECO", None)
        monkeypatch.setattr(workers, "_BEAM_PROBLEM", None)
        monkeypatch.setattr(workers, "_BEAM_SEGMENTS", OrderedDict())
        parent = Deco(catalog, **ENGINE)
        workers.init_deco_worker(parent.spec())
        worker = workers._DECO
        arena = TensorArena()
        try:
            for i in range(5):
                wf = montage(degrees=1.0, seed=200 + i)
                problem = parent._compiled(wf)
                key = problem_fingerprint(problem)
                assert arena.publish(key, *export_problem_arrays(problem))
                ctx = f"{key}:{i}"
                workers.beam_begin_solve_arena(
                    (ctx, key, parent.presets(wf).medium, 0.96, None, None, 0.0)
                )
                block = StateBlock.from_states(
                    PlanState.uniform(len(wf), t) for t in range(problem.num_types)
                )
                for call in ("moments", "screen"):
                    workers.beam_screen_job((ctx, block, call))
                workers.beam_eval_job((ctx, block))
            live = {base.sample_token for _, base in workers._BEAM_SEGMENTS.values()}
            assert len(live) == workers._BEAM_SEGMENT_LIMIT
            resident = resident_tokens(worker)
            for memo in ("makespan", "calibrations", "screen"):
                assert resident[memo] == live, memo
            assert resident["moments"] <= live  # tier 0's memo lives in the parent
        finally:
            workers._BEAM_SEGMENTS.clear()
            workers._BEAM_PROBLEM = None
            arena.close()


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


class TestPrefixRowsGoWithTheirToken:
    """Tier 1's prefix rows (``EvalContext.rows``) are token-keyed too."""

    def test_nine_workflows_then_clear(self, catalog):
        deco = Deco(catalog, **ENGINE)
        rows = deco.backend.eval_context.rows
        tokens = []
        for i in range(Deco._PROBLEM_CACHE_SIZE + 1):
            deco.schedule(montage(degrees=1.0, seed=200 + i), "medium")
            tokens.append(deco._problems[next(reversed(deco._problems))][1].sample_token)
            assert deco.last_result.screen_evals > 0
            assert set(rows._rows) <= live_tokens(deco)
        assert tokens[0] not in live_tokens(deco) and tokens[0] not in rows._rows
        assert set(rows._rows) == set(tokens[1:])
        deco.clear_caches()
        assert len(rows) == 0 and not rows._rows
        stats = deco.cache_stats()["makespan"]
        assert stats["prefix_entries"] == stats["prefix_nbytes"] == 0


class TestEditsGoWithTheirToken:
    """The search's edit memo (``GenericSearch.edit_memo``) is token-keyed too."""

    def test_nine_workflows_then_clear(self, catalog):
        deco = Deco(catalog, **ENGINE)
        edits = deco._search.edit_memo
        tokens = []
        for i in range(Deco._PROBLEM_CACHE_SIZE + 1):
            deco.schedule(montage(degrees=1.0, seed=300 + i), "medium")
            tokens.append(deco._problems[next(reversed(deco._problems))][1].sample_token)
            assert deco.last_result.expansions > 0
            assert set(edits._rows) <= live_tokens(deco)
        assert tokens[0] not in live_tokens(deco) and tokens[0] not in edits._rows
        assert set(edits._rows) == set(tokens[1:])
        deco.clear_caches()
        assert len(edits) == 0 and not edits._rows
        stats = deco._search.cache_stats()["expansions"]
        assert stats["entries"] == stats["nbytes"] == 0

    def test_a_fault_aware_solve_shares_no_entry_and_leaves_none(self, catalog):
        deco = Deco(catalog, **ENGINE)
        wf = montage(degrees=1.0, seed=3)
        deco.schedule(wf, "medium")
        edits = deco._search.edit_memo
        before = {token: set(rows) for token, rows in edits._rows.items()}
        hits = edits.hits
        deco.schedule(wf, "medium", faults=FaultModel(task_failure_rate=0.05))
        assert deco.last_result.expansions > 0
        assert edits.hits == hits  # nothing read from the base tensor's entries
        assert {token: set(rows) for token, rows in edits._rows.items()} == before
