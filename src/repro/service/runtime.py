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
4. queue at ``reject_depth`` or tenant over its token budget -- refuse
   with a structured ``retry_after_s``.

Every accepted job reaches exactly one terminal state exactly once --
``completed``, ``degraded`` (load-shed or solve-watchdog incumbent) or
``dead_lettered`` -- enforced in memory by the queue and structurally by
journal replay.
"""

from __future__ import annotations

import threading
import time
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
    """Tunables for one service instance (all have working defaults)."""

    journal_path: str = "deco-jobs.jsonl"
    workers: int = 2
    #: Queue depth at which new jobs are downgraded to the analytic backend.
    degrade_depth: int = 8
    #: Queue depth at which new jobs are refused outright.
    reject_depth: int = 16
    tenant_rate: float = 10.0
    tenant_burst: float = 20.0
    #: Dispatch attempts per job before dead-lettering (crashes only).
    max_attempts: int = 3
    #: First crash-retry backoff; doubles per subsequent attempt.
    backoff_base_s: float = 0.05
    #: A job running longer than this is treated as hung (worker killed).
    hang_after_s: float = 600.0
    cache_capacity: int = 128
    #: Dispatcher idle sleep between step()s in the background thread.
    poll_interval_s: float = 0.02
    #: Deco constructor overrides for the worker engines (seed,
    #: num_samples, max_evaluations, beam_width...).
    engine: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degrade_depth > self.reject_depth:
            raise ValidationError(
                f"degrade_depth ({self.degrade_depth}) must be <= "
                f"reject_depth ({self.reject_depth}): the ladder degrades before it rejects"
            )
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")


def _engine_spec(engine_overrides: dict) -> dict:
    """The picklable worker-engine spec (a cold Deco's :meth:`~repro.engine.deco.Deco.spec`)."""
    from repro.cloud import ec2_catalog
    from repro.engine.deco import Deco

    probe = Deco(ec2_catalog(), **engine_overrides)
    try:
        return probe.spec()
    finally:
        probe.close()


class DecoService:
    """Crash-safe solve-job runtime over a durable queue and warm workers."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.journal = JobJournal(self.config.journal_path)
        self.queue = DurableQueue(
            self.journal,
            reject_depth=self.config.reject_depth,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self.cache = PlanCache(self.config.cache_capacity)
        self._spec = _engine_spec(dict(self.config.engine))
        self.pool = WarmWorkerPool(self._spec, workers=self.config.workers)
        self.started_at = time.time()
        self.degrade_admissions = 0
        self._closed = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
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
            # (accepted => exactly-once terminal holds for it too).
            job = self.queue.submit(
                payload, tenant=tenant, priority=priority, skip_admission=True
            )
            envelope = dict(cached)
            envelope["cache_hit"] = True
            return self.queue.finish(
                job.job_id, "completed", result=envelope, cache_hit=True
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
        job._cache_key = key  # type: ignore[attr-defined]
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
            if status == "pending":
                continue
            transitions += 1
            if status == "done":
                self._finish_solved(active.job_id, value)
            elif status == "failed":
                self._dead_letter(active.job_id, value, retryable=False)
            else:  # crashed
                self._handle_crash(active.job_id, value)
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
            self.pool.dispatch(job.job_id, slot, job.payload, hang_after_s=hang)
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
        key = getattr(job, "_cache_key", None) or canonical_key(
            job.payload, engine_config=self.config.engine
        )
        self.cache.put(key, envelope)

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
        self.recoveries += 1
        if job.attempts >= self.config.max_attempts:
            self._dead_letter(job_id, exc, retryable=True)
            return
        backoff = self.config.backoff_base_s * (2 ** (job.attempts - 1))
        self.queue.requeue(job_id, backoff_s=backoff)

    # -- lifecycle ---------------------------------------------------------

    def run_until_idle(self, timeout_s: float = 300.0) -> None:
        """Drive :meth:`step` until no job is queued or running.

        The synchronous way to consume the queue (tests, batch mode);
        the background thread does the same thing forever.
        """
        t_end = time.monotonic() + timeout_s
        while self.queue.depth > 0:
            if time.monotonic() > t_end:
                raise TimeoutError(
                    f"service not idle after {timeout_s:g}s "
                    f"({self.queue.depth} jobs still in flight)"
                )
            if self.step() == 0:
                time.sleep(self.config.poll_interval_s)

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
        while not self._stop.is_set():
            try:
                if self.step() == 0:
                    self._stop.wait(self.config.poll_interval_s)
            except Exception:
                # The dispatcher must survive any single job's weirdness;
                # the job itself was dead-lettered or will hit the hang
                # watchdog.  Pause briefly so a persistent fault cannot
                # spin the CPU.
                self._stop.wait(0.2)

    def stop(self) -> None:
        """Stop the dispatcher thread (idempotent; jobs stay queued)."""
        self._stop.set()
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
