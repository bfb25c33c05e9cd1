"""Durable priority queue with admission control.

:class:`DurableQueue` pairs the in-memory dispatch structures (priority
heaps, backoff timers) with the write-ahead :class:`~.journal.JobJournal`:
every transition is journaled, then applied in memory by the same
:func:`~.journal.apply_event` replay folds, so live state is replayed
state by construction and a crash at any instant leaves a journal whose
replay reconstructs a queue that owes clients exactly what the dead
process owed them.

Admission control lives here too:

* **bounded depth** -- beyond ``reject_depth`` pending jobs the queue
  refuses new work with a structured retry-after;
* **per-tenant token buckets** -- a tenant claiming solver capacity
  faster than its refill rate is rate-limited without affecting other
  tenants.  Only a submission that would queue behind the tenant's own
  work (it already has ``workers`` unfinished jobs) is charged, so a
  closed-loop client that never outruns the workers is never refused.

The load-shedding *ladder* (degrade before reject) is runtime policy and
lives in :mod:`repro.service.runtime`; the queue only exposes the
measurements (``depth``) and the hard backstop (``reject_depth``).
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from typing import Any, Callable

from repro.common.errors import AdmissionError, JobNotFound, ServiceError, ValidationError

from .jobs import TERMINAL_STATES, JobRecord, new_job_id, validate_payload
from .journal import JobJournal, apply_event, replay_events, requeue_inflight

__all__ = ["TokenBucket", "DurableQueue"]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, bursting to ``capacity``."""

    def __init__(self, rate: float, capacity: float, *, clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or capacity <= 0:
            raise ValidationError(f"token bucket needs rate > 0 and capacity > 0, got {rate}, {capacity}")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = self.capacity
        self._stamp = self._clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_take(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available; returns 0.0 on success, else the
        seconds to wait until the bucket could satisfy the request."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate


class DurableQueue:
    """Journal-backed priority queue of :class:`JobRecord`\\ s."""

    #: Per-tenant token bucket (jobs/s, burst), charged only for a job
    #: submitted while its tenant already holds ``workers`` unfinished
    #: jobs -- one that would queue behind the tenant's own work.
    TENANT_RATE = 10.0
    TENANT_BURST = 20.0

    def __init__(self, journal: JobJournal, *, reject_depth: int = 64, workers: int = 1):
        if reject_depth < 1:
            raise ValidationError(f"reject_depth must be >= 1, got {reject_depth}")
        self.journal = journal
        self.reject_depth = int(reject_depth)
        # Unfinished jobs a tenant may hold before its bucket is charged:
        # the worker slots that consume this queue.
        self.workers = int(workers)
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        # Unfinished (queued + running) jobs, in total and per tenant:
        # kept by _apply so admission never scans the job history.
        self._unfinished = 0
        self._tenant_unfinished: dict[str, int] = {}
        # (priority_rank, sequence, job_id); sequence keeps FIFO within a class.
        self._heap: list[tuple[int, int, str]] = []
        self._seq = 0
        # job_id -> monotonic not-before stamp (exponential backoff after crash).
        self._not_before: dict[str, float] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self.rejected = 0
        self.rate_limited = 0
        self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: terminal jobs keep their results, non-terminal
        jobs (queued, or running when the process died) re-enter the heap."""
        for record in replay_events(self.journal.path):
            self._apply(record)
        self.recovered_inflight = requeue_inflight(self._jobs)
        for job in self._jobs.values():
            if not job.terminal:
                self._push(job)

    # -- internals ---------------------------------------------------------

    def _apply(self, record: dict) -> JobRecord:
        """:func:`apply_event` plus the unfinished-job counts."""
        job = apply_event(self._jobs, record)
        step = 1 if record["event"] == "submitted" else -1 if job.terminal else 0
        if step:
            self._unfinished += step
            self._tenant_unfinished[job.tenant] = self._tenant_unfinished.get(job.tenant, 0) + step
        return job

    def _commit(self, event: str, **fields: Any) -> JobRecord:
        """Journal one transition, then apply it: the only way a live job
        changes.  A job left queued goes (back) onto the dispatch heap."""
        fields.setdefault("ts", time.time())
        job = self._apply(self.journal.append(event, **fields))
        if job.state == "queued":
            self._push(job)
        return job

    def _push(self, job: JobRecord) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (job.priority_rank, self._seq, job.job_id))

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(self.TENANT_RATE, self.TENANT_BURST)
        return bucket

    # -- admission + submission --------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs accepted but not yet terminal (queued + running)."""
        with self._lock:
            return self._unfinished

    def admit(self, tenant: str) -> None:
        """Raise :class:`AdmissionError` if this submission must be refused.

        Two gates: the queue depth (``reject_depth``, all tenants), and
        the tenant's token bucket -- charged only when the tenant already
        has ``workers`` unfinished jobs, i.e. when this job would queue
        behind its own work.  The bucket limits one tenant's claim on
        solver capacity, not its request rate: a client that waits for
        its jobs is never charged.

        Checked *before* anything is journaled: a rejected job was never
        accepted, so the exactly-once-terminal invariant does not apply
        to it.
        """
        with self._lock:
            if self.depth >= self.reject_depth:
                self.rejected += 1
                raise AdmissionError(
                    f"queue full ({self.depth} jobs in flight, limit {self.reject_depth}); "
                    "retry later",
                    reason="queue_full",
                    retry_after_s=5.0,
                )
            if self._tenant_unfinished.get(tenant, 0) < self.workers:
                return
            wait = self._bucket(tenant).try_take()
            if wait > 0.0:
                self.rate_limited += 1
                raise AdmissionError(
                    f"tenant {tenant!r} exceeded {self.TENANT_RATE:g} submissions/s; "
                    f"retry in {wait:.2f}s",
                    reason="rate_limited",
                    retry_after_s=round(wait, 3),
                )

    def submit(
        self,
        payload: dict,
        *,
        tenant: str = "default",
        priority: str = "standard",
        degraded: bool = False,
        degrade_reason: str = "",
        result: dict | None = None,
    ) -> JobRecord:
        """Validate, admit, journal, and enqueue one job.

        The journal append happens before the job is visible in memory;
        once this returns, the job is accepted and will reach a terminal
        state exactly once even across crashes.

        A submission that arrives with its ``result`` (a plan-cache hit)
        consumes no solver capacity: it bypasses the depth/rate gates,
        and its ``submitted`` and ``completed`` events are journaled
        under one lock hold without it ever entering the dispatch heap,
        so no dispatcher turn can claim it in between.
        """
        payload = validate_payload(payload)
        with self._lock:
            if result is None:
                self.admit(tenant)
            now = time.time()
            job = JobRecord(
                job_id=new_job_id(),
                tenant=tenant,
                priority=priority,
                payload=payload,
                submitted_at=now,
                degraded=degraded,
                degrade_reason=degrade_reason,
            )
            if result is None:
                return self._commit("submitted", ts=now, job=job.to_dict())
            # Born finished: applied, never pushed, then completed.  When
            # the ``completed`` append fails, the durable ``submitted``
            # record is a queued job on replay, so it becomes one live too:
            # claimable, like any other.
            job = self._apply(self.journal.append("submitted", ts=now, job=job.to_dict()))
            try:
                return self.finish(job.job_id, "completed", result=result, cache_hit=True)
            except BaseException:
                if job.state == "queued":
                    self._push(job)
                raise

    # -- dispatch ----------------------------------------------------------

    def claim(self) -> JobRecord | None:
        """Pop the highest-priority dispatchable job and mark it running.

        Jobs under a backoff timer are skipped (left in the heap) until
        their ``not_before`` stamp passes.  Returns ``None`` when nothing
        is dispatchable right now.
        """
        with self._lock:
            now = time.monotonic()
            deferred: list[tuple[int, int, str]] = []
            claimed: JobRecord | None = None
            while self._heap:
                rank, seq, job_id = heapq.heappop(self._heap)
                job = self._jobs.get(job_id)
                if job is None or job.state != "queued":
                    continue  # stale heap entry (job finished meanwhile)
                if self._not_before.get(job_id, 0.0) > now:
                    deferred.append((rank, seq, job_id))
                    continue
                claimed = job
                break
            for entry in deferred:
                heapq.heappush(self._heap, entry)
            if claimed is None:
                return None
            try:
                return self._commit("started", job_id=job_id, attempts=claimed.attempts + 1)
            except BaseException:
                # A failed append applied nothing: the job is still queued,
                # so its entry goes back for a later claim.
                heapq.heappush(self._heap, (rank, seq, job_id))
                raise

    def requeue(self, job_id: str, *, backoff_s: float = 0.0) -> None:
        """Return a crashed job to the queue, optionally after a delay."""
        with self._lock:
            job = self._require(job_id)
            if job.terminal:
                raise ServiceError(
                    f"cannot requeue job {job_id}: already terminal ({job.state})"
                )
            self._commit("requeued", job_id=job_id, backoff_s=backoff_s)
            if backoff_s > 0.0:
                self._not_before[job_id] = time.monotonic() + backoff_s

    def next_ready_in(self) -> float | None:
        """Seconds until the next backoff-deferred job becomes claimable,
        or ``None`` when no job is waiting out a backoff.

        Only a queued job can carry a future stamp: :meth:`claim` never
        takes a job before its stamp passes.
        """
        with self._lock:
            now = time.monotonic()
            pending = [t for t in self._not_before.values() if t > now]
            return min(pending) - now if pending else None

    def finish(
        self,
        job_id: str,
        state: str,
        *,
        result: dict | None = None,
        error: dict | None = None,
        degraded: bool | None = None,
        degrade_reason: str | None = None,
        cache_hit: bool = False,
    ) -> JobRecord:
        """Commit a job's single terminal transition.

        Raises :class:`ValidationError` for a ``state`` that is not
        terminal and :class:`ServiceError` on a second terminal attempt,
        both before anything is journaled: a journal that replay would
        refuse is never written.
        """
        if state not in TERMINAL_STATES:
            raise ValidationError(f"finish needs a terminal state, got {state!r}")
        with self._lock:
            job = self._require(job_id)
            if job.terminal:
                raise ServiceError(
                    f"job {job_id} already terminal ({job.state}); "
                    f"refusing second terminal transition to {state!r}"
                )
            given = dict(degraded=degraded, degrade_reason=degrade_reason,
                         cache_hit=cache_hit or None, result=result, error=error)
            extra = {key: value for key, value in given.items() if value is not None}
            job = self._commit(state, job_id=job_id, **extra)
            self._not_before.pop(job_id, None)
            return job

    # -- queries -----------------------------------------------------------

    def _require(self, job_id: str) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(f"no such job: {job_id}", job_id=job_id)
        return job

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._require(job_id)

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(Counter(job.state for job in self._jobs.values()))
