"""Worker-process side of the job service.

Follows the :mod:`repro.parallel.workers` idiom: module-level functions
(picklable by reference) operating on worker-resident singletons that
the initializer rebuilds from a small spec.  A service worker keeps one
Deco engine *per backend* alive -- the degradation ladder downgrades
jobs to the analytic backend, and a downgraded job must not evict the
warm full-fidelity engine the next normal job needs.

Chaos hooks: a payload may carry ``"inject"`` (``"exit"`` -- die like a
SIGKILL'd process, ``"raise"`` -- fail deterministically, ``"sleep:N"``
-- stall to trip the hang watchdog).  They exist for the chaos harness
and the CI smoke test; production payloads simply omit the key.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Mapping

from repro.common.errors import ValidationError

if TYPE_CHECKING:
    from repro.engine.deco import Deco
    from repro.workflow.dag import Workflow

__all__ = ["init_service_worker", "ping_job", "solve_job", "build_workflow"]

_SPEC: dict | None = None
_ENGINES: "dict[str, Deco]" = {}


def init_service_worker(spec: Mapping[str, object]) -> None:
    """Remember the engine spec; engines are built lazily per backend."""
    global _SPEC
    _SPEC = dict(spec)
    _ENGINES.clear()


def _engine(backend: str) -> "Deco":
    """This worker's resident engine for ``backend`` (built on first use)."""
    if _SPEC is None:
        raise RuntimeError("service worker used before init_service_worker")
    engine = _ENGINES.get(backend)
    if engine is None:
        from repro.engine.deco import Deco

        spec = dict(_SPEC)
        spec["backend"] = backend
        engine = _ENGINES[backend] = Deco.from_spec(spec)
    return engine


def build_workflow(ref: Mapping[str, Any]) -> "Workflow":
    """Materialize the workflow a payload references.

    ``{"app": ...}`` runs the named synthetic generator (montage takes
    ``degrees`` or ``tasks``, the others ``tasks``); ``{"dax": path}``
    parses a Pegasus DAX file.  Deterministic: the same ref always
    yields the same workflow, which is what makes the plan cache sound.
    """
    if "dax" in ref:
        from repro.workflow import parse_dax

        return parse_dax(ref["dax"])
    from repro.workflow import generators

    app = ref["app"]
    seed = int(ref.get("seed", 0))
    if app == "montage":
        if "degrees" in ref:
            return generators.montage(degrees=float(ref["degrees"]), seed=seed)
        return generators.montage(num_tasks=int(ref.get("tasks", 50)), seed=seed)
    generator = getattr(generators, app, None)
    if generator is None:
        raise ValidationError(f"unknown workflow app {app!r}")
    return generator(num_tasks=int(ref.get("tasks", 100)), seed=seed)


def _build_faults(config: Mapping[str, Any] | None):
    if not config:
        return None
    from repro.faults.model import FaultModel

    return FaultModel(**dict(config))


def _run_injection(inject: str) -> None:
    if inject == "exit":
        # Simulate a hard worker death (OOM-kill, segfault): no Python
        # cleanup, no exception crossing the pool -- the parent sees a
        # BrokenProcessPool, exactly like a real crash.
        os._exit(1)
    elif inject == "raise":
        raise ValidationError("chaos injection: deterministic job failure")
    elif inject.startswith("sleep:"):
        time.sleep(float(inject.split(":", 1)[1]))
    else:
        raise ValidationError(f"unknown chaos injection {inject!r}")


def ping_job(_payload: object = None) -> dict:
    """Heartbeat: proves the worker is alive and reports its pid."""
    return {"pid": os.getpid(), "engines": sorted(_ENGINES)}


def solve_job(payload: dict) -> dict:
    """Solve one job payload; returns a JSON-ready result envelope.

    The envelope carries the full plan plus the provenance a client
    needs to judge it: which backend actually solved it, whether the
    solve watchdog fired, and -- for analytic-backend (degraded) plans
    -- the backend's probability-estimate error bound.
    """
    inject = payload.get("inject")
    if inject:
        _run_injection(str(inject))
    backend = payload.get("backend", "gpu")
    engine = _engine(backend)
    workflow = build_workflow(payload["workflow"])
    faults = _build_faults(payload.get("faults"))
    t0 = time.monotonic()
    if payload.get("wlog"):
        from repro.wlog.imports import ImportRegistry

        registry = ImportRegistry()
        registry.register_cloud("amazonec2", engine.catalog)
        app = payload["workflow"].get("app", "workflow")
        registry.register_workflow(app, workflow)
        registry.register_workflow("workflow", workflow)
        plan = engine.solve_program(payload["wlog"], registry)
    else:
        plan = engine.schedule(
            workflow,
            payload.get("deadline", "medium"),
            deadline_percentile=float(payload.get("percentile", 96.0)),
            faults=faults,
            solve_deadline_s=payload.get("solve_deadline_s"),
        )
    envelope = {
        "plan": plan.decision_dict(),
        "timed_out": plan.timed_out,
        "solve_seconds": round(time.monotonic() - t0, 6),
        "type_counts": plan.type_counts(),
        "workflow_tasks": len(plan.assignment),
        "worker_pid": os.getpid(),
    }
    if backend == "analytic":
        from repro.solver.analytic_backend import ANALYTIC_PROB_ERROR_BOUND

        envelope["probability_error_bound"] = ANALYTIC_PROB_ERROR_BOUND
    return envelope
