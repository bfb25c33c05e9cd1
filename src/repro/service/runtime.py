"""The Deco job service: admission ladder, dispatcher, degradation.

:class:`DecoService` glues the durable pieces together::

    submit -> [cache] -> [admission ladder] -> DurableQueue (journaled)
                                                    |
            dispatcher step():  claim -> WarmWorkerPool slot
                                    poll -> completed | degraded
                                            | crashed -> backoff requeue
                                                         -> dead_letter
                                            | failed  -> dead_letter

The **load-shedding ladder** runs at admission, cheapest remedy first:

1. plan cache hit -- serve the stored full-fidelity envelope, zero work;
2. queue healthy -- accept at full fidelity;
3. queue at/over ``degrade_depth`` -- accept, but downgraded to the
   analytic backend (milliseconds per solve, envelope carries the
   probability error bound) so the service sheds load before refusing it;
4. queue at ``reject_depth``, or a tenant that already holds ``workers``
   unfinished jobs with its token budget spent -- refuse with a
   structured ``retry_after_s``.

The **dispatcher** runs a turn when something happens and sleeps with
no timer in between: an accepted submission, a worker future finishing
(or breaking, when its process dies) and :meth:`DecoService.stop` set
one wake-up event; the only timed wake-ups are the next backoff-requeued
job falling due and the next running job reaching its hang deadline.

Every accepted job reaches exactly one terminal state exactly once --
``completed``, ``degraded`` (load-shed or solve-watchdog incumbent) or
``dead_lettered`` -- enforced in memory by the queue and structurally by
journal replay.
"""

from __future__ import annotations

import inspect
import math
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ValidationError

from .cache import PlanCache, canonical_key
from .jobs import JobRecord, validate_payload
from .journal import JobJournal
from .pool import WarmWorkerPool
from .queue import DurableQueue

__all__ = ["ServiceConfig", "DecoService"]


@dataclass
class ServiceConfig:
    """Tunables for one service instance (all have working defaults).

    The dispatcher has no tick to tune: it wakes on events, and its only
    timers are :attr:`DecoService.BACKOFF_BASE_S` backoffs and
    ``hang_after_s`` deadlines.  Every value is checked here, before the
    service opens its journal.
    """

    journal_path: str = "deco-jobs.jsonl"
    workers: int = 2
    #: Queue depth at which new jobs are downgraded to the analytic backend.
    degrade_depth: int = 8
    #: Queue depth at which new jobs are refused outright.
    reject_depth: int = 16
    #: Dispatch attempts per job before dead-lettering (crashes only).
    max_attempts: int = 3
    #: A job running longer than this is treated as hung (worker killed).
    hang_after_s: float = 600.0
    #: Deco constructor overrides for the worker engines: any key of
    #: :meth:`~repro.engine.deco.Deco.spec` but ``catalog`` (seed,
    #: num_samples, max_evaluations, backend, faults, recovery).
    engine: dict = field(default_factory=dict)
    #: The picklable worker-engine spec: a cold ``Deco(**engine)``'s
    #: :meth:`~repro.engine.deco.Deco.spec`, built here so an engine
    #: value ``Deco`` rejects fails before the journal opens.
    worker_spec: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("workers", "degrade_depth", "reject_depth", "max_attempts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        hang = self.hang_after_s
        if isinstance(hang, bool) or not isinstance(hang, (int, float)) or not (
            math.isfinite(hang) and hang > 0
        ):
            raise ValidationError(f"hang_after_s must be a finite number > 0, got {hang!r}")
        if self.degrade_depth > self.reject_depth:
            raise ValidationError(
                f"degrade_depth ({self.degrade_depth}) must be <= "
                f"reject_depth ({self.reject_depth}): the ladder degrades before it rejects"
            )
        # Deco.spec() carries every constructor argument but ``workers``
        # (tests/test_import_hygiene.py pins it); the service sets the catalog.
        from repro.engine.deco import Deco

        accepted = set(inspect.signature(Deco).parameters) - {"catalog", "workers"}
        unknown = sorted(set(self.engine) - accepted)
        if unknown:
            raise ValidationError(
                f"unknown engine key(s) {unknown}; accepted: {sorted(accepted)}"
            )
        from repro.cloud import ec2_catalog

        probe = Deco(ec2_catalog(), **self.engine)
        try:
            self.worker_spec = probe.spec()
        finally:
            probe.close()


class DecoService:
    """Crash-safe solve-job runtime over a durable queue and warm workers."""

    #: First crash-retry backoff (seconds); doubles per subsequent attempt.
    BACKOFF_BASE_S = 0.05

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.journal = JobJournal(self.config.journal_path)
        self.pool = WarmWorkerPool(self.config.worker_spec, workers=self.config.workers)
        self.queue = DurableQueue(
            self.journal, reject_depth=self.config.reject_depth, workers=self.pool.workers
        )
        self.cache = PlanCache()
        self.started_at = time.time()
        self.degrade_admissions = 0
        self.dispatcher_errors = 0
        self.last_dispatcher_error: dict | None = None
        self._closed = False
        self._stop = threading.Event()
        # Set by whatever can make the next dispatcher turn productive:
        # an accepted job, a worker future resolving, stop().
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        # job_id -> a finished worker's (status, value), until journaled.
        self._outcomes: dict[str, tuple[str, Any]] = {}
        # Replayed in-flight jobs (accepted before a crash) count as
        # recoveries; they are already back in the queue.
        self.recoveries = self.queue.recovered_inflight

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        payload: dict,
        *,
        tenant: str = "default",
        priority: str = "standard",
    ) -> JobRecord:
        """Run the admission ladder and accept (or refuse) one job.

        Raises :class:`~repro.common.errors.ValidationError` on a
        malformed payload and :class:`~repro.common.errors.AdmissionError`
        (with ``retry_after_s``) when the ladder's last rung is reached.
        """
        if self._closed:
            raise ValidationError("service is closed")
        payload = validate_payload(payload)
        key = canonical_key(payload, engine_config=self.config.engine)
        cached = self.cache.get(key)
        if cached is not None:
            # Rung 1: serve from cache.  Zero solver work, so admission
            # control does not apply -- but the job is still journaled
            # (accepted => exactly-once terminal holds for it too), born
            # completed so the dispatcher never sees it.
            envelope = dict(cached)
            envelope["cache_hit"] = True
            return self.queue.submit(
                payload, tenant=tenant, priority=priority, result=envelope
            )
        degraded = False
        reason = ""
        if (
            self.queue.depth >= self.config.degrade_depth
            and payload.get("backend") != "analytic"
        ):
            # Rung 3: shed load -- downgrade to the analytic backend
            # instead of refusing.  The envelope will carry the analytic
            # probability error bound so clients know what they got.
            payload = dict(payload)
            payload["backend"] = "analytic"
            degraded = True
            reason = "load_shed"
            self.degrade_admissions += 1
        job = self.queue.submit(
            payload,
            tenant=tenant,
            priority=priority,
            degraded=degraded,
            degrade_reason=reason,
        )
        self._wake.set()
        return job

    # -- dispatcher --------------------------------------------------------

    def step(self) -> int:
        """One dispatcher turn: harvest finished jobs, dispatch queued ones.

        Returns the number of state transitions made (0 == idle turn).
        Single-threaded by design: only the dispatcher thread (or a test
        driving the service synchronously) may call it.
        """
        transitions = 0
        for active in self.pool.active():
            status, value = self.pool.poll(active)
            if status != "pending":
                self._outcomes[active.job_id] = (status, value)
        # A harvested outcome leaves only once its transition is journaled:
        # when the append raises, the next turn commits it again.
        for job_id, (status, value) in list(self._outcomes.items()):
            if status == "done":
                self._finish_solved(job_id, value)
            elif status == "failed":
                self._dead_letter(job_id, value, retryable=False)
            else:  # crashed
                self._handle_crash(job_id, value)
            del self._outcomes[job_id]
            transitions += 1
        for slot in self.pool.idle_slots():
            job = self.queue.claim()
            if job is None:
                break
            hang = self.config.hang_after_s
            sd = job.payload.get("solve_deadline_s")
            if sd:
                # A watchdogged solve should finish within its budget
                # plus slack; a generous multiple still beats the global
                # hang limit for interactive jobs.
                hang = min(hang, float(sd) * 10.0 + 30.0)
            active = self.pool.dispatch(job.job_id, slot, job.payload, hang_after_s=hang)
            future = active.shard_job.future
            if future is not None:
                # Runs in the executor's management thread: it only wakes
                # the dispatcher, never calls step() itself.  A worker
                # death resolves the future too (BrokenProcessPool).
                future.add_done_callback(lambda _f: self._wake.set())
            transitions += 1
        return transitions

    def _finish_solved(self, job_id: str, envelope: dict) -> None:
        job = self.queue.get(job_id)
        timed_out = bool(envelope.get("timed_out"))
        if job.degraded or timed_out:
            reason = job.degrade_reason or ("solve_timeout" if timed_out else "")
            self.queue.finish(
                job_id, "degraded", result=envelope,
                degraded=True, degrade_reason=reason,
            )
            return
        self.queue.finish(job_id, "completed", result=envelope)
        # Only full-fidelity, converged results are worth replaying.
        self.cache.put(canonical_key(job.payload, engine_config=self.config.engine), envelope)

    def _dead_letter(self, job_id: str, exc: BaseException, *, retryable: bool) -> None:
        job = self.queue.get(job_id)
        self.queue.finish(
            job_id,
            "dead_lettered",
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "attempts": job.attempts,
                "retryable": retryable,
            },
        )

    def _handle_crash(self, job_id: str, exc: BaseException) -> None:
        job = self.queue.get(job_id)
        if job.attempts >= self.config.max_attempts:
            self._dead_letter(job_id, exc, retryable=True)
        else:
            self.queue.requeue(job_id, backoff_s=self.BACKOFF_BASE_S * (2 ** (job.attempts - 1)))
        self.recoveries += 1

    # -- lifecycle ---------------------------------------------------------

    def run_until_idle(self, timeout_s: float = 300.0) -> None:
        """Drive :meth:`step` until no job is queued or running.

        The synchronous way to consume the queue (tests, batch mode);
        the background thread does the same thing forever.  Both sleep
        between idle turns on the same wake-up (:meth:`_sleep_until_event`).
        """
        t_end = time.monotonic() + timeout_s
        while self.queue.depth > 0:
            remaining = t_end - time.monotonic()
            if remaining < 0:
                raise TimeoutError(
                    f"service not idle after {timeout_s:g}s "
                    f"({self.queue.depth} jobs still in flight)"
                )
            self._wake.clear()
            try:
                if self.step() == 0:
                    self._sleep_until_event(remaining)
            except OSError as exc:
                # A failed journal append is counted, as on the
                # dispatcher thread, and the turn retried shortly.
                self._record_dispatcher_error(exc)
                time.sleep(min(0.2, remaining))

    def _sleep_until_event(self, limit_s: float | None = None) -> None:
        """Block after an idle turn until a turn can make a transition.

        Events set ``_wake``; the only timers are the next backoff-requeued
        job falling due and the next running job's hang deadline.  With
        neither (and no ``limit_s``) the wait has no timeout.  The caller
        clears ``_wake`` *before* its turn, so an event that arrives
        during the turn cuts this wait short instead of being lost.
        """
        timers = [
            t
            for t in (self.queue.next_ready_in(), self.pool.next_hang_in(), limit_s)
            if t is not None
        ]
        self._wake.wait(max(0.0, min(timers)) if timers else None)

    def start(self) -> None:
        """Run the dispatcher in a daemon thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="deco-service-dispatcher", daemon=True
        )
        self._thread.start()

    def _dispatch_loop(self) -> None:
        while True:
            # Clear before checking _stop: stop() sets _stop, then _wake.
            self._wake.clear()
            if self._stop.is_set():
                return
            try:
                if self.step() == 0:
                    self._sleep_until_event()
            except Exception as exc:
                # The dispatcher must survive any single job's weirdness;
                # the job itself was dead-lettered or will hit the hang
                # watchdog.  Pause briefly so a persistent fault cannot
                # spin the CPU.
                self._record_dispatcher_error(exc)
                self._stop.wait(0.2)

    def _record_dispatcher_error(self, exc: Exception) -> None:
        self.dispatcher_errors += 1
        self.last_dispatcher_error = {"type": type(exc).__name__, "message": str(exc)}
        if self.dispatcher_errors == 1:
            warnings.warn(
                f"service dispatcher turn raised {type(exc).__name__}: {exc}; "
                "retrying in 0.2s (stats()['dispatcher_errors'] counts further ones)",
                RuntimeWarning,
                stacklevel=2,
            )

    def stop(self) -> None:
        """Stop the dispatcher thread (idempotent; jobs stay queued)."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def close(self) -> None:
        """Idempotent full shutdown: dispatcher, workers, journal."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        self.pool.close()
        self.journal.close()

    def __enter__(self) -> "DecoService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- probes ------------------------------------------------------------

    def healthy(self) -> dict:
        """Liveness: the process is up and the journal is writable."""
        return {
            "ok": not self._closed,
            "uptime_s": round(time.time() - self.started_at, 3),
            "journal_appends": self.journal.appends,
        }

    def ready(self) -> dict:
        """Readiness: accepting jobs at full fidelity right now?

        ``degraded_mode`` flags the ladder's analytic rung being active
        -- still accepting, but load-shedding.
        """
        depth = self.queue.depth
        return {
            "ok": not self._closed and depth < self.config.reject_depth,
            "depth": depth,
            "degraded_mode": depth >= self.config.degrade_depth,
            "workers": self.pool.workers,
        }

    def stats(self) -> dict:
        counts = self.queue.counts()
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "depth": self.queue.depth,
            "jobs": counts,
            "rejected": self.queue.rejected,
            "rate_limited": self.queue.rate_limited,
            "degrade_admissions": self.degrade_admissions,
            "recoveries": self.recoveries,
            "dispatcher_errors": self.dispatcher_errors,
            "last_dispatcher_error": self.last_dispatcher_error,
            "worker_respawns": self.pool.respawns,
            "worker_pids": self.pool.worker_pids(),
            "serial_fallback": self.pool.is_serial,
            "cache": self.cache.stats(),
            "journal_appends": self.journal.appends,
        }

    # -- queries -----------------------------------------------------------

    def job_status(self, job_id: str) -> dict:
        """The client-facing status document for one job."""
        job = self.queue.get(job_id)
        doc: dict[str, Any] = {
            "job_id": job.job_id,
            "state": job.state,
            "tenant": job.tenant,
            "priority": job.priority,
            "attempts": job.attempts,
            "degraded": job.degraded,
            "degrade_reason": job.degrade_reason,
            "cache_hit": job.cache_hit,
            "submitted_at": job.submitted_at,
        }
        if job.terminal:
            doc["finished_at"] = job.finished_at
            doc["latency_s"] = job.latency_s()
            if job.result is not None:
                doc["result"] = job.result
            if job.error is not None:
                doc["error"] = job.error
        return doc
