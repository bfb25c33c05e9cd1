"""A Condor/DAGMan-style job queue.

Pegasus hands executable workflows to HTCondor via DAGMan, which
releases a job once all its parents have completed and tracks each
job's lifecycle.  This module reproduces that state machine: jobs move
``UNREADY -> IDLE -> RUNNING -> DONE`` and every transition is recorded
as a :class:`JobEvent` -- the analogue of the DAGMan event log.

Failure handling follows DAGMan too: a running job can **fail**
(``RUNNING -> FAILED``) and be **retried** (``FAILED -> IDLE``), an
idle or failed job can be **held** out of the queue and **released**
back (``condor_hold``/``condor_release``), and a partially completed
run can be checkpointed into a *rescue workflow*
(:meth:`CondorQueue.rescue` / :meth:`CondorQueue.from_rescue`): the
rescue records which jobs already succeeded so a resubmission skips
them and resumes exactly where the aborted run stopped.

The queue is deliberately execution-agnostic: the WMS execution engine
drives it with the start/finish times the cloud simulator produced, and
the queue validates that the dependency discipline was respected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.workflow.dag import Workflow

__all__ = ["JobState", "JobEvent", "CondorQueue"]


class JobState(enum.Enum):
    UNREADY = "unready"   # waiting on parents
    IDLE = "idle"         # ready, waiting for a slot
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"     # attempt failed; retry() resubmits it
    HELD = "held"         # operator-held; release() requeues it


@dataclass(frozen=True)
class JobEvent:
    """One lifecycle transition (the DAGMan log line)."""

    time: float
    job_id: str
    state: JobState

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"[{self.time:10.2f}] {self.job_id} -> {self.state.value}"


class CondorQueue:
    """Dependency-aware job state machine for one workflow."""

    def __init__(self, workflow: Workflow):
        self.workflow = workflow
        self._state: dict[str, JobState] = {}
        self._pending_parents: dict[str, int] = {}
        self.events: list[JobEvent] = []
        for tid in workflow.task_ids:
            n = len(workflow.parents(tid))
            self._pending_parents[tid] = n
            self._state[tid] = JobState.IDLE if n == 0 else JobState.UNREADY
        for tid in workflow.roots():
            self.events.append(JobEvent(0.0, tid, JobState.IDLE))

    # Introspection ------------------------------------------------------

    def state(self, job_id: str) -> JobState:
        try:
            return self._state[job_id]
        except KeyError:
            raise ValidationError(f"unknown job {job_id!r}") from None

    @property
    def all_done(self) -> bool:
        return all(s == JobState.DONE for s in self._state.values())

    @property
    def stuck(self) -> bool:
        """Nothing can make progress: no idle/running jobs, not all done.

        True for an aborted run (failed/held jobs blocking their
        descendants) -- the state DAGMan writes a rescue file in.
        """
        if self.all_done:
            return False
        return not any(
            s in (JobState.IDLE, JobState.RUNNING) for s in self._state.values()
        )

    def counts(self) -> dict[JobState, int]:
        out = {s: 0 for s in JobState}
        for s in self._state.values():
            out[s] += 1
        return out

    # Transitions ----------------------------------------------------------

    def start(self, job_id: str, time: float) -> None:
        """IDLE -> RUNNING; rejects dependency violations."""
        state = self.state(job_id)
        if state != JobState.IDLE:
            raise ValidationError(
                f"cannot start {job_id!r}: state is {state.value} "
                f"({self._pending_parents[job_id]} parents pending)"
            )
        self._state[job_id] = JobState.RUNNING
        self.events.append(JobEvent(time, job_id, JobState.RUNNING))

    def finish(self, job_id: str, time: float) -> tuple[str, ...]:
        """RUNNING -> DONE; releases newly ready children (returned)."""
        state = self.state(job_id)
        if state != JobState.RUNNING:
            raise ValidationError(f"cannot finish {job_id!r}: state is {state.value}")
        self._state[job_id] = JobState.DONE
        self.events.append(JobEvent(time, job_id, JobState.DONE))
        released = []
        for child in self.workflow.children(job_id):
            self._pending_parents[child] -= 1
            if self._pending_parents[child] == 0:
                self._state[child] = JobState.IDLE
                self.events.append(JobEvent(time, child, JobState.IDLE))
                released.append(child)
        return tuple(released)

    def fail(self, job_id: str, time: float) -> None:
        """RUNNING -> FAILED; descendants stay unready until a retry."""
        state = self.state(job_id)
        if state != JobState.RUNNING:
            raise ValidationError(f"cannot fail {job_id!r}: state is {state.value}")
        self._state[job_id] = JobState.FAILED
        self.events.append(JobEvent(time, job_id, JobState.FAILED))

    def retry(self, job_id: str, time: float) -> None:
        """FAILED -> IDLE: resubmit a failed job (DAGMan RETRY)."""
        state = self.state(job_id)
        if state != JobState.FAILED:
            raise ValidationError(f"cannot retry {job_id!r}: state is {state.value}")
        self._state[job_id] = JobState.IDLE
        self.events.append(JobEvent(time, job_id, JobState.IDLE))

    def hold(self, job_id: str, time: float) -> None:
        """IDLE or FAILED -> HELD (``condor_hold``)."""
        state = self.state(job_id)
        if state not in (JobState.IDLE, JobState.FAILED):
            raise ValidationError(f"cannot hold {job_id!r}: state is {state.value}")
        self._state[job_id] = JobState.HELD
        self.events.append(JobEvent(time, job_id, JobState.HELD))

    def release(self, job_id: str, time: float) -> None:
        """HELD -> IDLE (``condor_release``)."""
        state = self.state(job_id)
        if state != JobState.HELD:
            raise ValidationError(f"cannot release {job_id!r}: state is {state.value}")
        self._state[job_id] = JobState.IDLE
        self.events.append(JobEvent(time, job_id, JobState.IDLE))

    # Rescue semantics ------------------------------------------------------

    def rescue(self) -> frozenset[str]:
        """The rescue record: ids of every job that completed.

        This is the content of a DAGMan rescue DAG -- the original
        workflow annotated with ``DONE`` markers.  Feed it back through
        :meth:`from_rescue` to resume the run without re-executing the
        completed work.
        """
        return frozenset(t for t, s in self._state.items() if s == JobState.DONE)

    @classmethod
    def from_rescue(cls, workflow: Workflow, done: frozenset[str] | set[str]) -> "CondorQueue":
        """A resumable queue with ``done`` jobs pre-completed.

        Validates the rescue record: every done job must exist and have
        only done parents (a rescue can never mark a child complete
        before its parents).  Jobs whose parents are all done become
        IDLE; everything else waits as usual.
        """
        unknown = sorted(set(done) - set(workflow.task_ids))
        if unknown:
            raise ValidationError(f"rescue record names unknown jobs {unknown[:5]}")
        for tid in done:
            missing = [p for p in workflow.parents(tid) if p not in done]
            if missing:
                raise ValidationError(
                    f"rescue record marks {tid!r} done but its parent "
                    f"{missing[0]!r} is not"
                )
        queue = cls.__new__(cls)
        queue.workflow = workflow
        queue._state = {}
        queue._pending_parents = {}
        queue.events = []
        for tid in workflow.task_ids:
            pending = sum(1 for p in workflow.parents(tid) if p not in done)
            queue._pending_parents[tid] = pending
            if tid in done:
                queue._state[tid] = JobState.DONE
                queue.events.append(JobEvent(0.0, tid, JobState.DONE))
            elif pending == 0:
                queue._state[tid] = JobState.IDLE
                queue.events.append(JobEvent(0.0, tid, JobState.IDLE))
            else:
                queue._state[tid] = JobState.UNREADY
        return queue

    def replay(self, records) -> None:
        """Drive the queue from simulator task records (start/finish times).

        Validates that the simulated execution respected every
        dependency; raises :class:`ValidationError` otherwise.  Records
        from a censored (aborted) run are accepted: already-done jobs
        are skipped and the queue simply ends partially complete, ready
        for :meth:`rescue`.
        """
        transitions = []
        for rec in records:
            if self._state.get(rec.task_id) == JobState.DONE:
                continue  # resuming from a rescue: completed work stays done
            # Finishes sort before starts on time ties: a child may start
            # at the exact instant its last parent finishes.
            transitions.append((rec.finish, 0, rec.task_id))
            transitions.append((rec.start, 1, rec.task_id))
        transitions.sort()
        for time, kind, tid in transitions:
            if kind == 0:
                self.finish(tid, time)
            else:
                self.start(tid, time)
