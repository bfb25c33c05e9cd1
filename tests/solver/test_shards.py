"""Tests for the distributed beam solve (PR 8).

The contract under test is bit-identity of *cold* solves:
``Deco(workers=N)`` must pick the same plan, through the same search
trajectory, as the serial solve -- for N in {1, 2, 4}, over either
prologue transport (shared-memory arena or pickled).  The
supporting lemma (per-candidate kernel values do not depend on batch
composition) gets its own property-based test, and the frontier
tie-break that makes the shard merge order-independent is pinned
directly.
"""

import os
import random
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import ec2_catalog
from repro.engine.deco import Deco
from repro.parallel.executor import chunk_evenly
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.search import GenericSearch
from repro.solver.shards import ShardedEvaluator
from repro.solver.state import PlanState, StateEval
from repro.workflow.generators import montage
from repro.workflow.runtime_model import RuntimeModel

CATALOG = ec2_catalog()
MODEL = RuntimeModel(CATALOG)

# Parent-side decisions: a cold solve's are the same at 1, 2 and 4 workers (DESIGN.md §13).
TRAJECTORY_COUNTERS = (
    "evaluations",
    "expansions",
    "exact_evals",
    "screen_evals",
    "screened_out",
    "analytic_evals",
    "analytic_screened_out",
    "analytic_accepted",
)


def solve_once(wf, workers, **overrides):
    kwargs = dict(seed=7, num_samples=100, max_evaluations=250)
    kwargs.update(overrides)
    with warnings.catch_warnings():
        # This host may have fewer cores than shards; the advisory
        # oversubscription warning is irrelevant to identity.
        warnings.simplefilter("ignore", RuntimeWarning)
        with Deco(CATALOG, workers=workers, **kwargs) as deco:
            plan = deco.schedule(wf, "medium")
            result = deco.last_result
    return plan.decision_dict(), result


class TestBitIdentityAcrossWorkers:
    """workers in {1, 2, 4} on Montage-1: plans and trajectories."""

    @pytest.fixture(scope="class")
    def wf(self):
        return montage(degrees=1, seed=2)

    def test_plans_and_trajectories_match_serial(self, wf):
        reference, ref_result = solve_once(wf, 1)
        for workers in (2, 4):
            decisions, result = solve_once(wf, workers)
            assert decisions == reference, f"plan diverged at workers={workers}"
            assert result.workers == workers
            for name in TRAJECTORY_COUNTERS:
                assert getattr(result, name) == getattr(ref_result, name), (
                    f"{name} diverged at workers={workers}"
                )

    def test_sharded_solve_reports_shard_cache_work(self, wf):
        _, serial = solve_once(wf, 1)
        _, sharded = solve_once(wf, 2)
        # The shard-resident caches report their misses back to the
        # parent: total makespan rows computed match the serial solve.
        assert sharded.cache_hits + sharded.cache_misses > 0
        assert sharded.cache_misses == serial.cache_misses

    def test_downgraded_pool_reports_one_worker(self, wf, monkeypatch):
        """``workers`` is what the solve ran on, not what was asked for."""
        import concurrent.futures

        from repro.parallel import executor as executor_mod

        def unavailable(*args, **kwargs):
            raise NotImplementedError("no process pools in this sandbox")

        reference, _ = solve_once(wf, 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        monkeypatch.setattr(executor_mod, "_warned_fallback", False)
        with Deco(CATALOG, workers=2, seed=7, num_samples=100, max_evaluations=250) as deco:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                plan = deco.schedule(wf, "medium")
            assert deco._shard_pool.is_serial
            assert deco.last_result.workers == 1
        assert plan.decision_dict() == reference


class TestBitIdentityAnalyticTier:
    """Montage-8 activates tier 0; the sharded cascade must not drift."""

    def test_sharded_cascade_matches_serial(self):
        wf = montage(degrees=8.0, seed=0)
        kw = dict(num_samples=40, max_evaluations=400)
        reference, ref_result = solve_once(wf, 1, **kw)
        decisions, result = solve_once(wf, 2, **kw)
        assert decisions == reference
        assert result.analytic_evals == ref_result.analytic_evals
        assert result.analytic_evals > 0  # the tier ran, sharded


class TestShardCrashDuringSolve:
    def test_killed_shard_recovers_with_identical_plan(self):
        wf = montage(degrees=1, seed=2)
        reference, _ = solve_once(wf, 1, num_samples=60, max_evaluations=120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            deco = Deco(CATALOG, workers=2, seed=7, num_samples=60, max_evaluations=120)
            try:
                deco.schedule(wf, "medium")  # spin up + warm the shards
                for executor in deco._shard_pool._executors:
                    if executor is not None:
                        for proc in executor._processes.values():
                            proc.kill()
                with pytest.warns(RuntimeWarning, match="beam shard"):
                    plan = deco.schedule(wf, "medium")
            finally:
                deco.close()
        assert plan.decision_dict() == reference


class TestRepeatedShardFailures:
    """Repeated worker loss within a single solve (service robustness).

    Each SIGKILL is one *incident*: exactly one ``beam shard`` warning,
    a serial re-run of only that shard's chunk, and a lazy respawn on
    the shard's next job -- so the plan stays bit-identical to the
    serial solve no matter how many times, or how close together,
    shards die.
    """

    KW = dict(num_samples=60, max_evaluations=120)

    def _solve_with_kills(self, wf, kill_plan):
        """Solve on 2 shards, SIGKILLing workers per ``kill_plan``.

        ``kill_plan`` maps an eval-round ordinal (1-based) to the shard
        indices whose worker is killed immediately before that round's
        dispatch.  Returns (decision_dict, rounds_seen, shard_warnings).
        """
        rounds = {"n": 0}
        original = ShardedEvaluator.submit_eval

        def sabotaged(evaluator, states, parents):
            rounds["n"] += 1
            for shard in kill_plan.get(rounds["n"], ()):
                pid = evaluator.pool.worker_pids()[shard]
                if pid is None:
                    # Shard died earlier and respawn is lazy; force the
                    # respawn (prologue replay included) so this kill
                    # hits a live worker -- the repeated-failure case.
                    evaluator.pool._spawn(shard)
                    pid = evaluator.pool.worker_pids()[shard]
                assert pid is not None, f"shard {shard} has no live worker to kill"
                os.kill(pid, signal.SIGKILL)
            return original(evaluator, states, parents)

        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            ShardedEvaluator.submit_eval = sabotaged
            try:
                with Deco(CATALOG, workers=2, seed=7, **self.KW) as deco:
                    plan = deco.schedule(wf, "medium")
            finally:
                ShardedEvaluator.submit_eval = original
        incidents = [w for w in captured if "beam shard" in str(w.message)]
        return plan.decision_dict(), rounds["n"], incidents

    @pytest.fixture(scope="class")
    def wf(self):
        return montage(degrees=1, seed=2)

    @pytest.fixture(scope="class")
    def reference(self, wf):
        decisions, _ = solve_once(wf, 1, **self.KW)
        return decisions

    def test_same_shard_killed_twice_in_one_solve(self, wf, reference):
        decisions, rounds, incidents = self._solve_with_kills(wf, {2: [0], 3: [0]})
        assert rounds >= 3, "solve finished before both kills landed"
        assert decisions == reference
        # One warning per incident: the second kill (of the respawned
        # worker) must be reported as its own event, not coalesced.
        assert len(incidents) == 2, [str(w.message) for w in incidents]

    def test_two_shards_killed_in_one_beam_iteration(self, wf, reference):
        decisions, rounds, incidents = self._solve_with_kills(wf, {2: [0, 1]})
        assert rounds >= 2
        assert decisions == reference
        assert len(incidents) == 2, [str(w.message) for w in incidents]


def solve_with_stats(wf, workers, **overrides):
    kwargs = dict(seed=7, num_samples=100, max_evaluations=250)
    kwargs.update(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with Deco(CATALOG, workers=workers, **kwargs) as deco:
            plan = deco.schedule(wf, "medium")
            stats = deco.cache_stats().get("distributed", {})
    return plan.decision_dict(), stats


def without_shared_memory(monkeypatch):
    """Make the parent see a platform without POSIX shared memory.

    The engine picks the prologue transport from ``arena_available()``
    in the parent, so this routes the next solves through the
    pickled-prologue fallback."""
    monkeypatch.setattr("repro.parallel.arena.arena_available", lambda: False)


class TestArenaBitIdentity:
    """transport x workers: the transport may not move the plan."""

    KW = dict(num_samples=60, max_evaluations=120)

    @pytest.fixture(scope="class")
    def wf(self):
        return montage(degrees=1, seed=2)

    @pytest.mark.parametrize("shared_memory", [True, False])
    def test_matrix_matches_serial(self, wf, shared_memory, monkeypatch):
        from repro.parallel.arena import arena_available

        reference, _ = solve_once(wf, 1, **self.KW)
        if not shared_memory:
            without_shared_memory(monkeypatch)
        elif not arena_available():
            pytest.skip("POSIX shared memory unavailable in this sandbox")
        for workers in (2, 4):
            decisions, stats = solve_with_stats(wf, workers, **self.KW)
            assert decisions == reference, f"plan diverged at workers={workers}"
            assert ("arena_publishes" in stats) == shared_memory

    def test_arena_shrinks_the_broadcast(self, wf, monkeypatch):
        from repro.parallel.arena import arena_available

        if not arena_available():
            pytest.skip("POSIX shared memory unavailable in this sandbox")
        _, arena_stats = solve_with_stats(wf, 2, **self.KW)
        assert arena_stats["arena_publishes"] >= 1
        assert arena_stats["broadcast_bytes"] > 0
        without_shared_memory(monkeypatch)
        _, pickled_stats = solve_with_stats(wf, 2, **self.KW)
        assert "arena_publishes" not in pickled_stats
        # The arena broadcast ships a content key plus scalar deltas;
        # the pickled prologue ships the whole compiled problem.
        assert arena_stats["broadcast_bytes"] < pickled_stats["broadcast_bytes"]

    def test_counters_exposed_via_cache_stats(self, wf):
        _, stats = solve_with_stats(wf, 2, **self.KW)
        for key in (
            "workers",
            "solves",
            "broadcasts",
            "broadcast_skipped",
            "broadcast_bytes",
            "prologue_replays",
        ):
            assert key in stats, key

    def test_repeat_solve_skips_rebroadcast(self, wf):
        from repro.parallel.arena import arena_available

        if not arena_available():
            pytest.skip("POSIX shared memory unavailable in this sandbox")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with Deco(CATALOG, workers=2, seed=7, **self.KW) as deco:
                first = deco.schedule(wf, "medium").decision_dict()
                second = deco.schedule(wf, "medium").decision_dict()
                stats = deco.cache_stats()["distributed"]
        assert first == second
        # Same problem, same deadline: the second begin-solve matches the
        # recorded stamp and is skipped before any serialization.
        assert stats["broadcast_skipped"] >= 1
        assert stats["arena_hits"] >= 1


class TestArenaWorkerKillReattach:
    """A respawned worker re-attaches the shared segment without leaks."""

    KW = dict(num_samples=60, max_evaluations=120)

    def test_sigkilled_worker_reattaches_cleanly(self):
        from repro.parallel.arena import arena_available

        if not arena_available():
            pytest.skip("POSIX shared memory unavailable in this sandbox")
        wf = montage(degrees=1, seed=2)
        reference, _ = solve_once(wf, 1, **self.KW)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Any shm handle dropped without close() in this process
            # becomes a hard failure, not console noise.
            warnings.simplefilter("error", ResourceWarning)
            deco = Deco(CATALOG, workers=2, seed=7, **self.KW)
            try:
                deco.schedule(wf, "medium")  # spin up, publish, attach
                for executor in deco._shard_pool._executors:
                    if executor is not None:
                        for proc in executor._processes.values():
                            proc.kill()
                with pytest.warns(RuntimeWarning, match="beam shard"):
                    plan = deco.schedule(wf, "medium")
                stats = deco.cache_stats()["distributed"]
            finally:
                deco.close()
        assert plan.decision_dict() == reference
        # The replacement workers replayed the arena prologue (attach by
        # content key), not a re-pickled problem.
        assert stats["prologue_replays"] >= 1
        assert stats["arena_publishes"] == 1


def compile_small(num_samples=48, seed=3):
    wf = montage(degrees=1, seed=2)
    fast = sum(MODEL.mean(wf.task(t), "m1.xlarge") for t in wf.task_ids)
    slow = sum(MODEL.mean(wf.task(t), "m1.small") for t in wf.task_ids)
    return CompiledProblem.compile(
        wf, CATALOG, deadline=0.5 * (fast + slow), percentile=90.0,
        num_samples=num_samples, seed=seed, runtime_model=MODEL,
    )


PROBLEM = compile_small()
BATCH = [
    PlanState(np.random.default_rng(i).integers(0, PROBLEM.num_types, PROBLEM.num_tasks))
    for i in range(12)
]


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_partitioned_evaluation_matches_whole_batch(chunks, salt):
    """The sharding lemma: evaluating any chunking of a candidate batch
    on *fresh* backends (one per shard) and concatenating reproduces the
    whole-batch evaluation exactly -- per-state kernel values are
    independent of batch composition and cache temperature."""
    rng = random.Random(salt)
    batch = list(BATCH)
    rng.shuffle(batch)
    whole = VectorizedBackend().evaluate_batch(PROBLEM, batch)
    pieces = []
    for chunk in chunk_evenly(batch, chunks):
        pieces.extend(VectorizedBackend().evaluate_batch(PROBLEM, chunk))
    assert pieces == whole


def test_frontier_merge_deterministic_in_partition():
    """Concatenating per-chunk evaluations in shard order, for any shard
    count, feeds the parent the same (state, eval) pairs -- so the merge
    is a function of the candidate set, not of the partition."""
    evals = {s.key: e for s, e in zip(BATCH, VectorizedBackend().evaluate_batch(PROBLEM, BATCH))}
    reference = None
    for chunks in (1, 2, 3, 5, 12):
        merged = []
        for chunk in chunk_evenly(BATCH, chunks):
            merged.extend((s, evals[s.key]) for s in chunk)
        ranked = sorted(merged, key=GenericSearch._frontier_key)
        if reference is None:
            reference = ranked
        assert ranked == reference


class TestFrontierTieBreak:
    def test_tied_priorities_sort_by_state_key(self):
        """Regression (satellite 2): entries with byte-equal priorities
        used to keep insertion order; the ranking must instead be a pure
        function of the frontier set."""
        tie = StateEval(cost=10.0, probability=0.97, feasible=True, mean_makespan=50.0)
        states = [PlanState(np.full(4, t, dtype=np.int64)) for t in range(6)]
        entries = [(s, tie) for s in states]
        rng = random.Random(0)
        orders = []
        for _ in range(5):
            shuffled = list(entries)
            rng.shuffle(shuffled)
            orders.append(sorted(shuffled, key=GenericSearch._frontier_key))
        assert all(order == orders[0] for order in orders)
        assert [s.key for s, _ in orders[0]] == sorted(s.key for s in states)

    def test_priority_still_dominates_key(self):
        cheap = StateEval(cost=1.0, probability=0.99, feasible=True, mean_makespan=10.0)
        dear = StateEval(cost=2.0, probability=0.99, feasible=True, mean_makespan=10.0)
        a = PlanState(np.full(4, 9, dtype=np.int64))   # big key bytes
        b = PlanState(np.zeros(4, dtype=np.int64))     # small key bytes
        ranked = sorted([(a, cheap), (b, dear)], key=GenericSearch._frontier_key)
        assert ranked[0][0] is a  # cheaper wins despite larger key
