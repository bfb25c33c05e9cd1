"""The process pool, with a deterministic in-process fallback.

Design notes
------------

* **Determinism is the caller's contract, enforced by structure.**  A
  job function handed to :class:`ShardPool` must be a pure function of
  its payload (plus the per-worker context built by the initializer
  from a picklable spec).  Under that contract the result list is
  identical for any worker count -- the pool only changes *where* each
  payload is evaluated, never *what* it sees.
* **Serial is a first-class mode, not an emergency.**  ``workers=1``
  (or ``REPRO_WORKERS=0``) runs every job in-process with zero pickling
  and zero pool setup; the parallel path must agree with it bit for bit,
  which is what the determinism regression tests assert.
* **Restricted environments downgrade, once, loudly.**  Sandboxes that
  forbid ``fork``/semaphores raise at pool creation or first dispatch;
  we catch that, emit a single :class:`RuntimeWarning` per process and
  run the jobs in-process (job functions are pure, so re-running is
  safe).
* **One crash policy.**  A worker that dies mid-job has that job re-run
  in-process, one warning per incident, and is respawned on next use.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence, TypeVar

from repro.common.errors import ValidationError
from repro.common.host import host_cpu_count

__all__ = [
    "ENV_WORKERS",
    "ShardPool",
    "chunk_evenly",
    "host_cpu_count",
    "resolve_workers",
    "workers_from_env",
]

#: Environment variable controlling the default worker count.
#: ``0`` forces the serial in-process path (useful to pin CI runs).
ENV_WORKERS = "REPRO_WORKERS"

_T = TypeVar("_T")
_R = TypeVar("_R")

# One fallback warning per process: the downgrade is environmental, not
# per-call, and a 100-chunk sweep should not print 100 warnings.
_warned_fallback = False

# Same policy for the oversubscription notice in resolve_workers.
_warned_oversubscription = False

#: How long :meth:`ShardPool.close` waits for its workers to leave on
#: their own before it terminates them.
_CLOSE_GRACE_S = 2.0


def workers_from_env() -> int:
    """Worker count from ``REPRO_WORKERS`` (unset or ``0`` means serial).

    Raises :class:`ValidationError` on non-integer or negative values so
    a typo fails fast instead of silently running serial.
    """
    raw = os.environ.get(ENV_WORKERS)
    if raw is None or not raw.strip():
        return 1
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValidationError(
            f"{ENV_WORKERS} must be an integer >= 0, got {raw!r}"
        ) from None
    if value < 0:
        raise ValidationError(f"{ENV_WORKERS} must be an integer >= 0, got {value}")
    return value if value > 0 else 1


def resolve_workers(workers: int | None = None) -> int:
    """Normalize a ``workers`` argument to an effective count (>= 1).

    ``None`` defers to ``REPRO_WORKERS`` (default serial); an explicit
    value must be a positive integer.  A count above the host's usable
    CPUs is allowed -- process pools handle it, and measuring the
    oversubscribed regime is a legitimate benchmark -- but warned about
    once per process, because every "parallel slower than serial" report
    so far traced back to exactly this.
    """
    if workers is None:
        count = workers_from_env()
    else:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ValidationError(f"workers must be a positive integer, got {workers!r}")
        if workers < 1:
            raise ValidationError(f"workers must be a positive integer, got {workers}")
        count = workers
    cpus = host_cpu_count()
    global _warned_oversubscription
    if count > cpus and not _warned_oversubscription:
        _warned_oversubscription = True
        warnings.warn(
            f"requested {count} workers but only {cpus} usable CPU(s); "
            "worker processes will time-share cores and parallel speedup "
            "may drop below 1",
            RuntimeWarning,
            stacklevel=3,
        )
    return count


def _warn_serial_fallback(exc: BaseException) -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        "process pool unavailable in this environment "
        f"({type(exc).__name__}: {exc}); falling back to serial execution",
        RuntimeWarning,
        stacklevel=3,
    )


def _warn_shard_crash(shard: int, exc: BaseException) -> None:
    # Per-incident, unlike the environmental downgrade above: a dead
    # worker is always worth a line, and the in-process rerun covers
    # exactly that worker's job -- not the whole batch.
    warnings.warn(
        f"worker {shard} died mid-job ({type(exc).__name__}: {exc}); "
        "re-running its job in-process and respawning the worker",
        RuntimeWarning,
        stacklevel=3,
    )


class _ShardJob:
    """A dispatched (or already-resolved) shard task.

    Carries enough to re-run the task in-process if the shard's worker
    dies before delivering: shard tasks are pure functions of their
    payload plus the replayed per-worker context, so the rerun is safe.
    """

    __slots__ = ("shard", "fn", "payload", "future", "value", "error", "done")

    def __init__(self, shard, fn, payload, future=None, value=None, error=None, done=False):
        self.shard = shard
        self.fn = fn
        self.payload = payload
        self.future = future
        self.value = value
        self.error = error
        self.done = done


class ShardPool:
    """Shard-affine worker pool: the one process pool of the package.

    It runs the distributed beam solve's shard jobs, the service's warm
    workers, simulation replications (``CloudSimulator.run_many``) and
    batch solves (``solve_plans``).  The pool keeps one dedicated
    single-process executor per shard index, so shard ``i``'s jobs
    always land on the same worker process.  That affinity is what
    keeps worker-resident evaluation caches (makespan rows, analytic
    calibrations) warm across beam iterations
    instead of being rebuilt per call.

    Context protocol:

    * ``initializer(*initargs)`` runs once per worker process (and once
      in-process for the serial/fallback path) -- the heavy, solve-
      independent rebuild (e.g. a Deco engine from its spec).
    * :meth:`broadcast` runs a job on **every** shard and records it as
      the *prologue*: any worker process created (or respawned after a
      crash) later replays the current prologue before its first real
      job, so per-solve context (the compiled problem) survives worker
      loss without shipping it on every call.

    Failure policy: environments that cannot run process pools
    downgrade to in-process execution with one :class:`RuntimeWarning`
    per process; a worker that dies mid-job gets that job re-run
    in-process (per-incident warning) and is respawned lazily --
    results are identical either way because jobs are pure.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: Sequence[object] = (),
    ):
        self.workers = resolve_workers(workers)
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._executors: list[object | None] = [None] * self.workers
        # Replayed on every fresh worker process; version-stamped so the
        # in-process fallback context can tell when it is stale.  Each
        # entry carries its measured pickled payload size so every ship
        # (broadcast or respawn replay) is accounted in ``counters``.
        self._prologue: list[tuple[Callable, object, int]] = []
        self._prologue_stamp: object = None
        #: Broadcast-plane accounting: how many prologues were recorded,
        #: how many were skipped by an unchanged content stamp, how many
        #: times a prologue payload was actually shipped into a worker
        #: process, and the total bytes those ships moved.
        self.counters: dict[str, int] = {
            "broadcasts": 0,
            "broadcast_skipped": 0,
            "broadcast_bytes": 0,
            "prologue_replays": 0,
        }
        self._version = 0
        self._shard_versions = [-1] * self.workers
        self._local_version = -1
        self._local_init = False
        self._serial = self.workers == 1
        self._closed = False
        # Interpreter-exit safety net: an abandoned pool (no close(), no
        # context manager) still shuts its executors down in an orderly
        # way at garbage collection or interpreter exit.  The callback
        # deliberately closes over the executor *list* (stable identity,
        # mutated in place), never over ``self`` -- a self-reference
        # would keep the pool alive forever.  finalize callbacks run
        # before concurrent.futures' own atexit join, so teardown never
        # races the executor management threads.
        self._finalizer = weakref.finalize(
            self, ShardPool._shutdown_abandoned, self._executors
        )

    @staticmethod
    def _shutdown_abandoned(executors: list) -> None:
        """Best-effort executor shutdown for pools never close()d.

        Runs at finalization (gc or interpreter exit), where raising
        would surface as an unraisable-exception warning -- so every
        failure mode is swallowed: the processes die with the
        interpreter anyway, this just makes the common path quiet.
        """
        for i, executor in enumerate(executors):
            executors[i] = None
            if executor is not None:
                try:
                    executor.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass

    @property
    def is_serial(self) -> bool:
        """Whether jobs currently run in-process (1 worker or fallback)."""
        return self._serial

    # In-process execution --------------------------------------------

    def _ensure_local(self) -> None:
        """Bring the in-process context up to date (init + prologue)."""
        if not self._local_init:
            if self._initializer is not None:
                self._initializer(*self._initargs)
            self._local_init = True
        if self._local_version != self._version:
            for fn, payload, _nbytes in self._prologue:
                fn(payload)
            self._local_version = self._version

    def _run_local(self, fn: Callable, payload) -> object:
        self._ensure_local()
        return fn(payload)

    def _downgrade(self, exc: BaseException) -> None:
        _warn_serial_fallback(exc)
        self._serial = True
        self.close_executors()

    # Worker-process execution ----------------------------------------

    def _spawn(self, shard: int):
        """The shard's executor, created (with prologue replay) on demand."""
        if self._closed:
            raise RuntimeError("ShardPool is closed")
        executor = self._executors[shard]
        if executor is not None and self._shard_versions[shard] == self._version:
            return executor
        from concurrent.futures import ProcessPoolExecutor

        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=self._initializer,
                initargs=self._initargs,
            )
            self._executors[shard] = executor
        # Replay the current prologue synchronously: a begin-solve that
        # fails must surface here, not as a confusing "unknown solve"
        # from the first real job.
        for fn, payload, nbytes in self._prologue:
            executor.submit(fn, payload).result()
            self.counters["prologue_replays"] += 1
            self.counters["broadcast_bytes"] += nbytes
        self._shard_versions[shard] = self._version
        return executor

    def _discard(self, shard: int) -> None:
        executor = self._executors[shard]
        self._executors[shard] = None
        self._shard_versions[shard] = -1
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                # Shutting down an already-broken executor (dead worker,
                # interpreter teardown) must never mask the incident
                # being handled -- the processes are reaped regardless.
                pass

    # Public API -------------------------------------------------------

    def broadcast(
        self, fn: Callable[[_T], _R], payload: _T, stamp: object = None
    ) -> list[_R]:
        """Run ``(fn, payload)`` on every shard; record it as the prologue.

        The recorded prologue replaces any previous one (solves are
        sequential: only the current solve's context needs replaying on
        a respawned worker).

        ``stamp`` is the caller's content identity for the payload (a
        hash, not the payload itself).  When it matches the recorded
        prologue's stamp the broadcast is skipped *before any
        serialization happens*: live shards already hold this exact
        context, crashed shards will replay the recorded prologue on
        their next spawn, and the only cost is a counter bump.
        """
        if stamp is not None and self._prologue and stamp == self._prologue_stamp:
            self.counters["broadcast_skipped"] += 1
            if self._serial:
                self._ensure_local()
            return [True] * (1 if self._serial else self.workers)  # type: ignore[list-item]
        nbytes = 0
        if not self._serial:
            try:
                nbytes = len(pickle.dumps(payload, protocol=4))
            except Exception:
                nbytes = 0  # unpicklable payloads fail loudly in _spawn
        self._prologue = [(fn, payload, nbytes)]
        self._prologue_stamp = stamp
        self.counters["broadcasts"] += 1
        self._version += 1
        self._local_version = -1  # the in-process context is now stale
        if self._serial:
            return [self._run_local(fn, payload)]
        results: list[_R] = []
        for shard in range(self.workers):
            try:
                self._spawn(shard)  # prologue replay IS the broadcast
            except (NotImplementedError, OSError) as exc:
                self._downgrade(exc)
                return [self._run_local(fn, payload)]
            except BrokenProcessPool as exc:
                _warn_shard_crash(shard, exc)
                self._discard(shard)
                results.append(self._run_local(fn, payload))  # type: ignore[arg-type]
                continue
            results.append(True)  # type: ignore[arg-type]
        return results

    def submit(self, shard: int, fn: Callable[[_T], _R], payload: _T) -> _ShardJob:
        """Dispatch a job to ``shard % workers``; never blocks on results.

        Pair with :meth:`gather`.  In serial/fallback mode the job runs
        inline here and :meth:`gather` just unwraps it.
        """
        shard = shard % self.workers
        if not self._serial:
            try:
                executor = self._spawn(shard)
                return _ShardJob(shard, fn, payload, future=executor.submit(fn, payload))
            except (NotImplementedError, OSError) as exc:
                self._downgrade(exc)
            except BrokenProcessPool as exc:
                _warn_shard_crash(shard, exc)
                self._discard(shard)
                return _ShardJob(shard, fn, payload)  # resolved at gather, locally
        try:
            return _ShardJob(shard, fn, payload, value=self._run_local(fn, payload), done=True)
        except Exception as exc:  # surfaced at gather, like a future's
            return _ShardJob(shard, fn, payload, error=exc, done=True)

    def gather(self, jobs: Sequence[_ShardJob]) -> list:
        """Results of :meth:`submit` jobs, in submission-list order.

        A shard whose worker died mid-job is warned about once (the
        jobs queued behind the lost one die with it), every lost job is
        re-run in-process against the replayed prologue context, and the
        executor is respawned on next use -- the result list is
        identical to an undisturbed run.
        """
        results = []
        crashed: set[int] = set()
        for job in jobs:
            if job.future is None:
                if job.error is not None:
                    raise job.error
                if not job.done:
                    # Dispatch-time crash: resolve locally now.
                    job.value = self._run_local(job.fn, job.payload)
                    job.done = True
                results.append(job.value)
                continue
            try:
                results.append(job.future.result())
            except BrokenProcessPool as exc:
                if job.shard not in crashed:
                    crashed.add(job.shard)
                    _warn_shard_crash(job.shard, exc)
                    self._discard(job.shard)
                results.append(self._run_local(job.fn, job.payload))
            except (NotImplementedError, OSError) as exc:
                self._downgrade(exc)
                results.append(self._run_local(job.fn, job.payload))
        return results

    def run(self, fn: Callable[[_T], _R], payloads: Sequence[_T]) -> list[_R]:
        """Barrier convenience: ``payloads[i]`` on shard ``i``, gathered."""
        return self.gather([self.submit(i, fn, p) for i, p in enumerate(payloads)])

    def respawn(self, shard: int) -> None:
        """Discard ``shard``'s worker process; the next job respawns it.

        The public face of crash handling for layers above the beam
        solve (the service worker pool): after killing or losing a
        worker, call this and the next :meth:`submit` to the shard
        creates a fresh process and replays the current prologue.
        """
        self._discard(shard % self.workers)

    def worker_pids(self) -> list[int | None]:
        """OS pid of each shard's live worker process (``None`` if down).

        Liveness probes and chaos tooling (kill a worker mid-solve by
        pid) need the real process identity; a shard whose executor is
        not spawned yet, was discarded, or runs in the serial fallback
        reports ``None``.
        """
        pids: list[int | None] = []
        for executor in self._executors:
            procs = getattr(executor, "_processes", None) or {}
            alive = [p.pid for p in procs.values() if p.is_alive()]
            pids.append(alive[0] if alive else None)
        return pids

    def close_executors(self) -> None:
        """Shut down every worker process (the pool stays usable serially)."""
        for shard in range(self.workers):
            self._discard(shard)

    def close(self) -> None:
        """Shut down the pool for good; no worker it started outlives the call.

        ``shutdown(wait=False)`` only *asks* the workers to exit, so the
        processes are joined here: one bounded wait shared by all of
        them (an idle worker leaves within milliseconds), then
        ``terminate()`` and finally ``kill()`` for one still busy with a
        job nobody will collect.  Each executor's management thread,
        which reaps the same processes, is joined last: until it has
        stored a reaped worker's exit code, ``is_alive()`` still reports
        that worker alive.  Idempotent and re-entrant.
        """
        owned = [
            proc
            for executor in self._executors
            for proc in list((getattr(executor, "_processes", None) or {}).values())
        ]
        managers = [
            getattr(executor, "_executor_manager_thread", None) for executor in self._executors
        ]
        self.close_executors()
        self._closed = True
        deadline = time.monotonic() + _CLOSE_GRACE_S
        for proc in owned:
            proc.join(max(0.0, deadline - time.monotonic()))
        for stop in ("terminate", "kill"):
            stragglers = [proc for proc in owned if proc.is_alive()]
            for proc in stragglers:
                getattr(proc, stop)()
            for proc in stragglers:
                proc.join(_CLOSE_GRACE_S)
        for thread in managers:
            if thread is not None:
                thread.join(_CLOSE_GRACE_S)


def chunk_evenly(items: Sequence[_T], chunks: int) -> list[list[_T]]:
    """Split ``items`` into at most ``chunks`` contiguous, balanced runs.

    Contiguity keeps flattened results in input order; balance keeps the
    pool busy (sizes differ by at most one).  Empty chunks are dropped.
    """
    if chunks < 1:
        raise ValidationError(f"chunks must be >= 1, got {chunks}")
    n = len(items)
    chunks = min(chunks, n) if n else 0
    out: list[list[_T]] = []
    start = 0
    for i in range(chunks):
        size = n // chunks + (1 if i < n % chunks else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out
