"""Exception hierarchy for the Deco reproduction.

All library-raised exceptions derive from :class:`DecoError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing user errors (bad WLog programs, invalid workflows)
from engine failures (bad backend names, malformed states).
"""

from __future__ import annotations


def format_source_context(source: str, line: int, column: int, end_column: int = 0) -> str:
    """Render a source line with a ``^`` caret marking ``line:column``.

    Shared by :class:`WLogSyntaxError` and the static-analysis
    diagnostics renderer (:mod:`repro.wlog.diagnostics`) so parse errors
    and lint findings point at programs the same way.  Columns are
    1-based; ``end_column`` (exclusive) widens the caret to underline a
    whole token.  Returns ``""`` when the position is out of range.
    """
    lines = source.splitlines()
    if not (1 <= line <= len(lines)):
        return ""
    text = lines[line - 1].expandtabs(1)
    col = max(1, min(column, len(text) + 1))
    width = max(1, end_column - col) if end_column > col else 1
    return f"    {text}\n    {' ' * (col - 1)}{'^' * width}"


class DecoError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ValidationError(DecoError, ValueError):
    """A model object (workflow, plan, distribution...) is malformed."""


class CloudError(DecoError):
    """The cloud simulator was driven into an invalid state.

    Examples: releasing an instance twice, scheduling a task onto an
    instance that was never acquired, or referencing an unknown region.
    """


class ExecutionAborted(CloudError):
    """A simulated run exhausted its retry budget and was abandoned.

    Unlike a bare :class:`CloudError`, this carries the full context of
    the abort so failures are debuggable and censorable: the task that
    gave up, how many attempts it burned, the simulation clock at abort
    time, and the :class:`~repro.cloud.simulator.TaskRecord`\\ s of every
    task that *did* complete (``run_many(on_abort="record")`` turns
    these into censored outcomes instead of killing the batch).
    """

    def __init__(
        self,
        message: str,
        *,
        task_id: str = "",
        attempts: int = 0,
        sim_time: float = 0.0,
        task_records: tuple = (),
        partial_result=None,
    ):
        self.task_id = task_id
        self.attempts = attempts
        self.sim_time = sim_time
        self.task_records = tuple(task_records)
        self.partial_result = partial_result
        super().__init__(message)


class WLogError(DecoError):
    """Base class for errors in the WLog declarative language layer."""


class WLogSyntaxError(WLogError):
    """The WLog source text could not be tokenized or parsed.

    Carries the source position to make programs debuggable.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0, source: str | None = None):
        self.line = line
        self.column = column
        self.base_message = message
        if line:
            message = f"{message} (line {line}, column {column})"
            if source:
                excerpt = format_source_context(source, line, column)
                if excerpt:
                    message = f"{message}\n{excerpt}"
        super().__init__(message)


class WLogAnalysisError(WLogError):
    """A WLog program was rejected by the static analyzer.

    Carries the :class:`~repro.wlog.diagnostics.Diagnostic` records that
    triggered the rejection in :attr:`diagnostics`, so callers (CLI,
    services) can render them with source context instead of a bare
    message.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class WLogRuntimeError(WLogError):
    """Evaluation of a (syntactically valid) WLog program failed.

    Examples: arithmetic on an unbound variable, calling an unknown
    predicate, or an ``import`` of a workflow/cloud that was never
    registered with the engine.
    """


class ServiceError(DecoError):
    """The job-service runtime failed (bad journal, unknown job...).

    Every subclass must survive a pickle round-trip with all fields
    intact -- service exceptions routinely cross process-pool
    boundaries (worker -> dispatcher) and land in dead-letter records.
    The parametrized hierarchy test in
    ``tests/common/test_error_pickling.py`` enforces this: keep extra
    fields either reconstructible from ``args`` or stored on the
    instance ``__dict__`` (which :meth:`BaseException.__reduce__`
    preserves), and give every ``__init__`` parameter after the message
    a default so ``cls(*args)`` always succeeds.
    """


class JournalCorrupt(ServiceError):
    """The write-ahead journal has an undecodable record *before* the tail.

    A torn final line is expected after a crash mid-append and is
    silently dropped on replay; corruption anywhere else means the file
    was damaged by something other than a crash and replay must not
    guess.  Carries the journal path and the offending line number.
    """

    def __init__(self, message: str, path: str = "", line_number: int = 0):
        self.path = str(path)
        self.line_number = int(line_number)
        super().__init__(message)


class AdmissionError(ServiceError):
    """A job submission was refused by admission control.

    Structured backpressure, not a crash: carries the machine-readable
    ``reason`` (``"queue_full"`` or ``"rate_limited"``) and the
    ``retry_after_s`` hint after which the submission is expected to be
    accepted, so clients back off instead of hammering the queue.
    """

    def __init__(self, message: str, reason: str = "", retry_after_s: float = 0.0):
        self.reason = str(reason)
        self.retry_after_s = float(retry_after_s)
        super().__init__(message)


class JobNotFound(ServiceError):
    """A status/result query named a job id the service has no record of."""

    def __init__(self, message: str, job_id: str = ""):
        self.job_id = str(job_id)
        super().__init__(message)


class SolverError(DecoError):
    """The search engine failed (bad backend name, malformed state...)."""
