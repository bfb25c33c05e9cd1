"""Tests for the worker-pool abstraction (repro.parallel.executor)."""

import concurrent.futures
import os
import time
import warnings

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.parallel import executor as executor_mod
from repro.parallel.executor import (
    ENV_WORKERS,
    ShardPool,
    chunk_evenly,
    resolve_workers,
    workers_from_env,
)

# Module-level so worker processes can unpickle them by reference.


def square(x):
    return x * x


def worker_pid(_):
    return os.getpid()


_CONTEXT = {}


def set_context(value):
    _CONTEXT["value"] = value


def read_context(x):
    return (_CONTEXT.get("value"), x)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_value(self, monkeypatch):
        # Pin the CPU count so a 1-core host doesn't also trip the
        # oversubscription warning (covered by its own test class).
        monkeypatch.setattr(executor_mod, "host_cpu_count", lambda: 4)
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True])
    def test_rejects_non_positive_or_non_integer(self, bad):
        with pytest.raises(ValidationError):
            resolve_workers(bad)


class TestWorkersFromEnv:
    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert workers_from_env() == 1

    def test_positive_value(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert workers_from_env() == 3

    def test_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "0")
        assert workers_from_env() == 1

    @pytest.mark.parametrize("bad", ["banana", "-2", "2.5"])
    def test_rejects_invalid(self, monkeypatch, bad):
        monkeypatch.setenv(ENV_WORKERS, bad)
        with pytest.raises(ValidationError):
            workers_from_env()


def _divide_by(x):
    return 1 // x


def _square_or_die(x):
    # Kills its worker process on the marker item -- but only inside a
    # pool worker, so the serial recovery rerun in the parent completes.
    import multiprocessing

    if x == "die" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return 0 if x == "die" else x * x


def _run_closed(pool, fn, payloads):
    try:
        return pool.run(fn, payloads)
    finally:
        pool.close()


class TestWorkerCrashRecovery:
    def test_killed_worker_recovers_serially_with_full_results(self):
        items = list(range(8)) + ["die"] + list(range(8, 11))
        expected = [_square_or_die(x) for x in items]
        # Job i runs on worker i % 2: "die" kills worker 0, and its job
        # (plus the one queued behind it) re-runs in this process.
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            out = _run_closed(ShardPool(2), _square_or_die, items)
        assert out == expected
        incidents = [str(w.message) for w in captured if "died mid-job" in str(w.message)]
        assert len(incidents) == 1 and incidents[0].startswith("worker 0 ")

    def test_recovery_rerun_reruns_initializer(self):
        _CONTEXT.clear()  # forked workers must not inherit a value
        pool = ShardPool(2, initializer=set_context, initargs=(9,))
        items = [0, 1, 2, 3, "die", 5]
        with pytest.warns(RuntimeWarning, match="died mid-job"):
            out = _run_closed(pool, _read_context_or_die, items)
        assert all(ctx == 9 for ctx, _ in out)
        assert [x for _, x in out] == items


def _read_context_or_die(x):
    import multiprocessing

    if x == "die" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return (_CONTEXT.get("value"), x)


class TestSerialFallback:
    @pytest.fixture(autouse=True)
    def reset_warning_flag(self):
        executor_mod._warned_fallback = False
        yield
        executor_mod._warned_fallback = False

    def test_falls_back_with_single_warning(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise NotImplementedError("no process pools in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            out = _run_closed(ShardPool(2), square, range(6))
        assert out == [x * x for x in range(6)]
        # The downgrade warns exactly once per process, not per pool.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_closed(ShardPool(2), square, range(4)) == [0, 1, 4, 9]

    def test_fallback_preserves_initializer(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("fork blocked")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        pool = ShardPool(2, initializer=set_context, initargs=(11,))
        with pytest.warns(RuntimeWarning):
            assert _run_closed(pool, read_context, [5] * 2) == [(11, 5), (11, 5)]


def _sleep(seconds):
    time.sleep(seconds)


def _alive(pid: int) -> bool:
    """Whether ``pid`` still names a process (running or unreaped)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _context_square(x):
    # Pure function of (payload, replayed context): what shard jobs are.
    return (_CONTEXT.get("value"), x * x)


def _context_square_or_die(x):
    import multiprocessing

    if x == "die" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return (_CONTEXT.get("value"), 0 if x == "die" else x * x)


class TestShardPool:
    def test_run_preserves_payload_order(self):
        pool = ShardPool(2)
        try:
            assert pool.run(square, [3, 5, 7]) == [9, 25, 49]
        finally:
            pool.close()

    def test_serial_pool_runs_inline(self):
        pool = ShardPool(1, initializer=set_context, initargs=(4,))
        try:
            assert pool.is_serial
            job = pool.submit(0, read_context, 6)
            assert job.done and job.future is None
            assert pool.gather([job]) == [(4, 6)]
        finally:
            pool.close()

    def test_shard_affinity_is_stable(self):
        pool = ShardPool(2)
        try:
            first = pool.run(worker_pid, [0, 1])
            second = pool.run(worker_pid, [0, 1])
            assert first == second  # shard i always lands on the same process
        finally:
            pool.close()

    def test_broadcast_prologue_reaches_every_shard(self):
        pool = ShardPool(2, initializer=set_context, initargs=(1,))
        try:
            pool.broadcast(set_context, 42)
            assert pool.run(_context_square, [2, 3]) == [(42, 4), (42, 9)]
            # A later broadcast replaces the prologue on every shard.
            pool.broadcast(set_context, 43)
            assert pool.run(_context_square, [2, 3]) == [(43, 4), (43, 9)]
        finally:
            pool.close()

    def test_prologue_replayed_on_respawned_shard(self):
        pool = ShardPool(2)
        try:
            pool.broadcast(set_context, 9)
            with pytest.warns(RuntimeWarning, match="worker 0 died mid-job"):
                out = pool.run(_context_square_or_die, ["die", 3])
            # The dead shard's chunk re-ran in-process against the
            # *replayed* prologue, so its context value is still 9.
            assert out == [(9, 0), (9, 9)]
            # Next use respawns the shard; the fresh worker replays the
            # prologue before its first real job.
            assert pool.run(_context_square, [2, 3]) == [(9, 4), (9, 9)]
        finally:
            pool.close()

    def test_submit_gather_split_keeps_submission_order(self):
        pool = ShardPool(2)
        try:
            jobs = [pool.submit(i, square, x) for i, x in enumerate([4, 5, 6])]
            assert pool.gather(jobs) == [16, 25, 36]  # shard index wraps: 6 -> shard 0
        finally:
            pool.close()

    def test_serial_matches_parallel(self):
        items = list(range(17))  # more payloads than workers: shards wrap
        serial = _run_closed(ShardPool(1), square, items)
        parallel = _run_closed(ShardPool(2), square, items)
        assert serial == parallel == [x * x for x in items]

    def test_shards_run_in_distinct_processes(self):
        pids = _run_closed(ShardPool(2), worker_pid, [0, 1])
        assert len(set(pids)) == 2 and os.getpid() not in pids

    def test_initializer_runs_in_each_worker(self):
        _CONTEXT.clear()  # forked workers must not inherit a value
        pool = ShardPool(2, initializer=set_context, initargs=(7,))
        # No broadcast: the initializer alone builds each worker's context.
        assert _run_closed(pool, read_context, range(8)) == [(7, x) for x in range(8)]

    def test_worker_exception_surfaces_at_gather(self):
        pool = ShardPool(2)
        try:
            jobs = [pool.submit(i, _divide_by, x) for i, x in enumerate([1, 0, 2])]
            assert jobs[1].future is not None  # raised in a worker process
            with pytest.raises(ZeroDivisionError):
                pool.gather(jobs)
        finally:
            pool.close()

    def test_job_exception_surfaces_at_gather(self):
        pool = ShardPool(1)
        try:
            job = pool.submit(0, _divide_by, 0)
            with pytest.raises(ZeroDivisionError):
                pool.gather([job])
        finally:
            pool.close()

    def test_closed_pool_rejects_parallel_submit(self):
        pool = ShardPool(2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, square, 1)

    @pytest.mark.parametrize("busy", [False, True], ids=["idle", "job-in-flight"])
    def test_close_leaves_no_worker_alive(self, busy):
        pool = ShardPool(2)
        pool.run(square, [1, 2])  # spawn both workers
        pids = pool.worker_pids()
        assert all(pid is not None for pid in pids)
        if busy:
            pool.submit(0, _sleep, 30.0)
        pool.close()
        assert [pid for pid in pids if _alive(pid)] == []
        pool.close()  # idempotent

    def test_broadcast_stamp_skips_reserialization(self):
        pool = ShardPool(2, initializer=set_context, initargs=(0,))
        try:
            pool.broadcast(set_context, 21, stamp="ctx-a")
            first = dict(pool.counters)
            # Same stamp: nothing is pickled or shipped, only a counter.
            pool.broadcast(set_context, 21, stamp="ctx-a")
            assert pool.counters["broadcasts"] == first["broadcasts"]
            assert pool.counters["broadcast_skipped"] == first["broadcast_skipped"] + 1
            assert pool.counters["broadcast_bytes"] == first["broadcast_bytes"]
            # Workers still hold the broadcast context after the skip.
            assert pool.run(_context_square, [2, 3]) == [(21, 4), (21, 9)]
            # A new stamp replaces the prologue and pays for bytes again.
            pool.broadcast(set_context, 22, stamp="ctx-b")
            assert pool.counters["broadcasts"] == first["broadcasts"] + 1
            assert pool.counters["broadcast_bytes"] > first["broadcast_bytes"]
            assert pool.run(_context_square, [2, 3]) == [(22, 4), (22, 9)]
        finally:
            pool.close()

    def test_broadcast_without_stamp_never_skips(self):
        pool = ShardPool(1)
        try:
            pool.broadcast(set_context, 5)
            pool.broadcast(set_context, 5)
            assert pool.counters["broadcasts"] == 2
            assert pool.counters["broadcast_skipped"] == 0
        finally:
            pool.close()


class TestShardPoolFallback:
    @pytest.fixture(autouse=True)
    def reset_warning_flag(self):
        executor_mod._warned_fallback = False
        yield
        executor_mod._warned_fallback = False

    def test_downgrades_to_in_process_with_context(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise NotImplementedError("no process pools in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        pool = ShardPool(3, initializer=set_context, initargs=(8,))
        try:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                pool.broadcast(set_context, 12)
            assert pool.is_serial
            # Jobs keep working in-process against the broadcast context.
            assert pool.run(_context_square, [2, 3, 4]) == [(12, 4), (12, 9), (12, 16)]
        finally:
            pool.close()


class TestChunkEvenly:
    def test_balanced_contiguous(self):
        chunks = chunk_evenly(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert chunk_evenly([], 3) == []

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            chunk_evenly([1], 0)

    def test_flatten_preserves_order(self):
        items = list(range(23))
        flat = [x for chunk in chunk_evenly(items, 4) for x in chunk]
        assert flat == items


@given(
    n=st.integers(min_value=0, max_value=200),
    chunks=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_chunk_evenly_partitions_totally_and_in_order(n, chunks):
    items = list(range(n))
    out = chunk_evenly(items, chunks)
    # Total, order-preserving partition with no empty chunks and sizes
    # within one item of each other.
    assert [x for chunk in out for x in chunk] == items
    assert all(chunk for chunk in out)
    assert len(out) <= chunks
    if out:
        sizes = [len(chunk) for chunk in out]
        assert max(sizes) - min(sizes) <= 1


class TestOversubscriptionWarning:
    @pytest.fixture(autouse=True)
    def reset_warning_flag(self):
        executor_mod._warned_oversubscription = False
        yield
        executor_mod._warned_oversubscription = False

    def test_warns_once_above_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "host_cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="only 2 usable CPU"):
            assert resolve_workers(5) == 5
        # Once per process: the second oversubscribed resolve is silent.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(5) == 5

    def test_no_warning_at_or_below_cpu_count(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "host_cpu_count", lambda: 4)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(4) == 4
            assert resolve_workers(1) == 1

    def test_count_is_never_clamped(self, monkeypatch):
        # The warning is advisory: benchmarks measuring the oversubscribed
        # regime still get exactly the workers they asked for.
        monkeypatch.setattr(executor_mod, "host_cpu_count", lambda: 1)
        with pytest.warns(RuntimeWarning):
            assert resolve_workers(8) == 8
