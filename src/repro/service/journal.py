"""Append-only write-ahead journal for the job service.

The journal is the service's only durable state: one JSONL file, one
event per line, appended with ``write + flush + fsync`` so an event
acknowledged to a client survives a process crash.  Recovery is pure
replay -- fold the events in order through :func:`apply_event`, the
transition function the live queue runs on every append, and the final
per-job states fall out.  There is no compaction or in-place mutation;
a fresh service pointed at an old journal reconstructs every job it
ever accepted.

Event shape::

    {"event": "submitted" | "started" | "requeued" | "completed"
              | "degraded" | "dead_lettered",
     "ts": <wall clock>, "job": {...full JobRecord...}}       # submitted
    {"event": ..., "ts": ..., "job_id": ..., ...delta fields}  # the rest

Crash tolerance contract (enforced by :func:`replay_events`):

* a **torn final line** (no trailing newline, or undecodable JSON) is
  what a crash mid-append leaves behind -- it is dropped with a
  :class:`RuntimeWarning` and replay proceeds;
* an undecodable line anywhere **before** the tail cannot be explained
  by a crash and raises :class:`~repro.common.errors.JournalCorrupt`
  rather than silently losing accepted jobs.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import warnings
import weakref
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.common.errors import JournalCorrupt, ValidationError

from .jobs import TERMINAL_STATES, JobRecord

__all__ = ["JobJournal", "replay_events", "apply_event", "requeue_inflight", "fold_events"]

_EVENTS = frozenset({"submitted", "started", "requeued"}) | TERMINAL_STATES


def _close_quiet(fh) -> None:
    """Finalizer: close an abandoned journal handle without raising."""
    try:
        if not fh.closed:
            fh.close()
    except Exception:
        pass


class JobJournal:
    """Durable append-only event log with crash-consistent appends."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh: io.TextIOWrapper | None = None
        self.appends = 0

    # -- writing -----------------------------------------------------------

    def _handle(self) -> io.TextIOWrapper:
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "a", encoding="utf-8")
            # Interpreter-exit safety: a journal abandoned without
            # close() must not leak its handle (ResourceWarning) at
            # teardown.  The callback closes over the handle, not self.
            weakref.finalize(self, _close_quiet, self._fh)
        return self._fh

    def append(self, event: str, **fields: Any) -> dict:
        """Durably append one event; returns the record as written.

        The record only counts as accepted once ``fsync`` returns: the
        service acknowledges a submission to the client strictly after
        this call, which is what makes "accepted jobs survive crashes"
        true rather than probabilistic.
        """
        if event not in _EVENTS:
            raise ValidationError(f"unknown journal event {event!r}")
        record = {"event": event, **fields}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        if "\n" in line:  # defense in depth; json.dumps never emits newlines
            raise ValidationError("journal records must be single-line JSON")
        with self._lock:
            fh = self._handle()
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            self.appends += 1
        return record

    def close(self) -> None:
        """Idempotent: safe to call twice or on a never-written journal."""
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()
            self._fh = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_events(path: str | os.PathLike) -> Iterator[dict]:
    """Yield journal events in append order, tolerating only a torn tail."""
    path = Path(path)
    if not path.exists():
        return
    raw = path.read_bytes()
    if not raw:
        return
    lines = raw.split(b"\n")
    # A complete journal ends with a newline, so the final split element
    # is empty; anything else is a torn tail candidate.
    torn_tail_possible = lines[-1] != b""
    if lines[-1] == b"":
        lines.pop()
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError("journal record is not an event object")
        except ValueError as exc:
            if i == last and torn_tail_possible:
                warnings.warn(
                    f"journal {path}: dropping torn final record "
                    f"(crash mid-append): {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return
            raise JournalCorrupt(
                f"journal {path} is corrupt at line {i + 1} "
                f"(not the tail, so not a torn append): {exc}",
                path=str(path),
                line_number=i + 1,
            ) from exc
        yield record


#: Each delta field :func:`apply_event` reads: what it must be, and the
#: test -- the type :class:`JobRecord` declares for it.
_FIELDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "ts": (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "attempts": (
        "an int >= 1", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1
    ),
    "result": ("an object or null", lambda v: v is None or isinstance(v, Mapping)),
    "error": ("an object or null", lambda v: v is None or isinstance(v, Mapping)),
    "degraded": ("a bool", lambda v: isinstance(v, bool)),
    "cache_hit": ("a bool", lambda v: isinstance(v, bool)),
    "degrade_reason": ("a string", lambda v: isinstance(v, str)),
}


def _field(record: dict, name: str, default: Any) -> Any:
    """``record[name]``, checked against :data:`_FIELDS`; ``default`` when absent."""
    if name not in record:
        return default
    value = record[name]
    what, valid = _FIELDS[name]
    if not valid(value):
        raise JournalCorrupt(
            f"journal {record['event']!r} record for job {record.get('job_id')!r} has "
            f"{name}={value!r}, not {what}"
        )
    return value


def apply_event(jobs: dict[str, JobRecord], record: dict) -> JobRecord:
    """Apply one journal event to ``jobs`` and return the job it changed.

    The one place a job's lifecycle fields change: the live queue runs
    it on every record it appends, replay on every record it reads.  An
    event for an unknown job, a second ``submitted`` for a known one,
    any event after a terminal one and a field that is not of the type
    :class:`JobRecord` declares raise :class:`JournalCorrupt`, because a
    correct service can never write them.
    """
    event = record["event"]
    if event == "submitted":
        try:
            job = JobRecord.from_dict(record["job"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalCorrupt(f"journal 'submitted' record has no valid job: {exc!r}") from exc
        if job.job_id in jobs or job.state != "queued":
            raise JournalCorrupt(f"job {job.job_id} submitted twice or not queued ({job.state!r})")
        jobs[job.job_id] = job
        return job
    job_id = record.get("job_id", "")
    job = jobs.get(job_id)
    if job is None:
        raise JournalCorrupt(
            f"journal event {event!r} references unknown job {job_id!r} "
            "(no prior 'submitted' record)"
        )
    if job.terminal:
        raise JournalCorrupt(
            f"job {job_id} received {event!r} after already reaching "
            f"terminal state {job.state!r} -- exactly-once violated"
        )
    if event == "started":
        started_at = _field(record, "ts", 0.0)
        attempts = _field(record, "attempts", job.attempts + 1)
        job.state, job.started_at, job.attempts = "running", started_at, attempts
    elif event == "requeued":
        job.state = "queued"
    elif event in TERMINAL_STATES:
        fields = {
            name: _field(record, name, getattr(job, name))
            for name in ("degraded", "degrade_reason", "cache_hit", "result", "error")
        }
        finished_at = _field(record, "ts", 0.0)
        for name, value in fields.items():
            setattr(job, name, value)
        job.state, job.finished_at = event, finished_at
    else:
        raise JournalCorrupt(f"unknown journal event {event!r} for job {job_id}")
    return job


def requeue_inflight(jobs: dict[str, JobRecord]) -> int:
    """Re-queue the jobs left ``running`` (in flight when the process
    died; the dead attempt still counts); returns how many."""
    inflight = [job.job_id for job in jobs.values() if job.state == "running"]
    for job_id in inflight:
        apply_event(jobs, {"event": "requeued", "job_id": job_id})
    return len(inflight)


def fold_events(events: Iterator[dict]) -> dict[str, JobRecord]:
    """Fold an event stream into final job states (:func:`apply_event`
    per record, then :func:`requeue_inflight`), so replay never strands
    an accepted job."""
    jobs: dict[str, JobRecord] = {}
    for record in events:
        apply_event(jobs, record)
    requeue_inflight(jobs)
    return jobs
