"""Job records and the service state machine.

A job moves through exactly one path of::

    queued -> running -> completed            (full-fidelity plan)
                      -> degraded             (best-effort: load-shed to the
                                               analytic backend, or the solve
                                               watchdog returned an incumbent)
                      -> dead_lettered        (attempt budget exhausted, or a
                                               deterministic solver error)
           \\-> (crash) -> queued              (re-queued with backoff)

``completed``, ``degraded`` and ``dead_lettered`` are *terminal*: the
service guarantees every accepted job reaches exactly one of them
exactly once (the chaos harness's core invariant), and the durable
queue refuses a second terminal transition.

Payload shape (everything JSON, everything journalable)::

    {
      "workflow": {"app": "montage", "degrees": 4.0, "seed": 7}   # or
                  {"app": "ligo", "tasks": 100, "seed": 7}        # or
                  {"dax": "path/to/workflow.xml"},
      "wlog": "<optional WLog source solved against the workflow>",
      "deadline": "medium" | <seconds>,
      "percentile": 96.0,
      "backend": "gpu" | "analytic",    # repro.solver.BACKEND_NAMES
      "solve_deadline_s": <optional wall-clock watchdog>,
      "faults": {"task_failure_rate": 0.05, "instance_mtbf": 36000.0} | null,
      "inject": "<chaos-test hook: exit | raise | sleep:<s>>"
    }
"""

from __future__ import annotations

import math
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.common.errors import ValidationError

__all__ = [
    "PRIORITY_CLASSES",
    "TERMINAL_STATES",
    "JobRecord",
    "new_job_id",
    "validate_payload",
]

#: Priority class -> dispatch rank (lower dispatches first).  Within a
#: class the queue is FIFO by submission sequence.
PRIORITY_CLASSES: dict[str, int] = {"interactive": 0, "standard": 1, "batch": 2}

#: States a job can never leave (and must reach exactly once).
TERMINAL_STATES = frozenset({"completed", "degraded", "dead_lettered"})

_ALL_STATES = frozenset({"queued", "running"}) | TERMINAL_STATES


def new_job_id() -> str:
    """A journal-unique job id (time-sortable prefix + random suffix)."""
    return f"job-{time.strftime('%Y%m%dT%H%M%S')}-{uuid.uuid4().hex[:10]}"


def _finite_number(value: Any) -> bool:
    """A finite int or float; ``bool`` and JSON's ``Infinity`` / ``NaN`` are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


#: Generator app -> the fewest tasks it builds (``payload.workflow.tasks``).
_MIN_TASKS = {"montage": 10, "ligo": 6, "epigenomics": 8, "cybershake": 6}


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_workflow_numbers(wf: Mapping[str, Any]) -> None:
    """``degrees``, ``tasks`` and ``seed`` of a generator reference."""
    if "degrees" in wf and (not _finite_number(wf["degrees"]) or not wf["degrees"] > 0):
        raise ValidationError(
            f"payload.workflow.degrees must be a finite number > 0, got {wf['degrees']!r}"
        )
    if "tasks" in wf:
        least = _MIN_TASKS.get(wf.get("app"), 1)
        if not _integer(wf["tasks"]) or wf["tasks"] < least:
            raise ValidationError(
                f"payload.workflow.tasks must be an integer >= {least}, got {wf['tasks']!r}"
            )
    if "seed" in wf and (not _integer(wf["seed"]) or wf["seed"] < 0):
        raise ValidationError(
            f"payload.workflow.seed must be an integer >= 0, got {wf['seed']!r}"
        )


def validate_payload(payload: Mapping[str, Any]) -> dict:
    """Normalize and validate a job payload; raises :class:`ValidationError`.

    Validation happens at admission so a malformed job is rejected with
    a clear message instead of dead-lettering after a queue round trip.
    """
    # Imported here so that `import repro.service` stays free of the
    # solver; a running service has loaded it already.
    from repro.solver.backends import BACKEND_NAMES

    if not isinstance(payload, Mapping):
        raise ValidationError(f"job payload must be an object, got {type(payload).__name__}")
    data = dict(payload)
    wf = data.get("workflow")
    if not isinstance(wf, Mapping) or not ({"app", "dax"} & set(wf)):
        raise ValidationError(
            "payload.workflow must name a generator app "
            '({"app": ..., "degrees"/"tasks": ..., "seed": ...}) or a DAX file ({"dax": path})'
        )
    if "app" in wf and (not isinstance(wf["app"], str) or wf["app"] not in _MIN_TASKS):
        raise ValidationError(f"unknown workflow app {wf['app']!r}")
    _validate_workflow_numbers(wf)
    if data.get("wlog") is not None and not isinstance(data["wlog"], str):
        raise ValidationError(
            f"payload.wlog must be WLog source text, got {type(data['wlog']).__name__}"
        )
    if data.get("faults") is not None and not isinstance(data["faults"], Mapping):
        raise ValidationError(
            f"payload.faults must be an object, got {type(data['faults']).__name__}"
        )
    backend = data.setdefault("backend", "gpu")
    if backend not in BACKEND_NAMES:
        raise ValidationError(
            f"payload.backend must be one of {'|'.join(BACKEND_NAMES)}, got {backend!r}"
        )
    deadline = data.setdefault("deadline", "medium")
    if isinstance(deadline, str):
        if deadline not in ("tight", "medium", "loose"):
            raise ValidationError(
                f"payload.deadline must be tight|medium|loose or seconds, got {deadline!r}"
            )
    elif not _finite_number(deadline) or not deadline > 0:
        raise ValidationError(
            f"payload.deadline must be a finite number of seconds > 0, got {deadline!r}"
        )
    percentile = data.setdefault("percentile", 96.0)
    if not _finite_number(percentile) or not 0 < percentile <= 100:
        raise ValidationError(f"payload.percentile must be in (0, 100], got {percentile!r}")
    sd = data.get("solve_deadline_s")
    if sd is not None and (not _finite_number(sd) or not sd > 0):
        raise ValidationError(f"payload.solve_deadline_s must be finite and > 0, got {sd!r}")
    return data


@dataclass
class JobRecord:
    """One job's full lifecycle, as the queue and the journal see it."""

    job_id: str
    tenant: str = "default"
    priority: str = "standard"
    payload: dict = field(default_factory=dict)
    state: str = "queued"
    submitted_at: float = 0.0      # wall clock (journal timestamps)
    started_at: float = 0.0
    finished_at: float = 0.0
    attempts: int = 0              # dispatch attempts consumed so far
    degraded: bool = False         # admission downgraded the backend
    degrade_reason: str = ""       # "load_shed" | "solve_timeout" | ""
    cache_hit: bool = False
    result: dict | None = None     # terminal envelope (plan, counters)
    error: dict | None = None      # dead-letter record {type, message, attempts}

    def __post_init__(self):
        if self.priority not in PRIORITY_CLASSES:
            raise ValidationError(
                f"priority must be one of {sorted(PRIORITY_CLASSES)}, got {self.priority!r}"
            )
        if self.state not in _ALL_STATES:
            raise ValidationError(f"unknown job state {self.state!r}")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def priority_rank(self) -> int:
        return PRIORITY_CLASSES[self.priority]

    def latency_s(self) -> float | None:
        """Submit-to-terminal wall-clock latency, once terminal."""
        if not self.terminal or not self.finished_at:
            return None
        return max(0.0, self.finished_at - self.submitted_at)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in dict(data).items() if k in known})
