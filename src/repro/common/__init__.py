"""Shared low-level substrate used by every other subsystem.

This package deliberately has no dependencies on the rest of :mod:`repro`
so that any module can import it without creating cycles.  It provides:

* :mod:`repro.common.rng` -- a seedable random-source service.  Every
  stochastic component in the reproduction (cloud performance dynamics,
  workflow generators, Monte Carlo inference) draws from named child
  streams of a single root seed, so whole experiments are replayable.
* :mod:`repro.common.units` -- explicit time/money unit helpers.  The
  paper mixes seconds (task runtimes), hours (billing) and dollars;
  keeping conversions in one place avoids the classic factor-3600 bug.
* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.host` -- the CPUs this process may run on.
"""

from repro.common.errors import (
    DecoError,
    CloudError,
    ValidationError,
    WLogError,
    WLogSyntaxError,
    WLogRuntimeError,
    SolverError,
)
from repro.common.rng import RngService, spawn_rng
from repro.common.units import (
    SECONDS_PER_HOUR,
    hours_to_seconds,
    seconds_to_hours,
    billed_hours,
)

__all__ = [
    "DecoError",
    "CloudError",
    "ValidationError",
    "WLogError",
    "WLogSyntaxError",
    "WLogRuntimeError",
    "SolverError",
    "RngService",
    "spawn_rng",
    "SECONDS_PER_HOUR",
    "hours_to_seconds",
    "seconds_to_hours",
    "billed_hours",
]
