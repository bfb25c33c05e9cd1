"""A Condor/DAGMan-style job queue.

Pegasus hands executable workflows to HTCondor via DAGMan, which
releases a job once all its parents have completed and tracks each
job's lifecycle.  This module reproduces that state machine: jobs move
``UNREADY -> IDLE -> RUNNING -> DONE`` and every transition is recorded
as a :class:`JobEvent` -- the analogue of the DAGMan event log.

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

    def replay(self, records) -> None:
        """Drive the queue from simulator task records (start/finish times).

        Validates that the simulated execution respected every
        dependency; raises :class:`ValidationError` otherwise.  Records
        of a censored (aborted) run are accepted: the queue simply ends
        partially complete.
        """
        transitions = []
        for rec in records:
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
