"""Warm worker pool: the service's process-level execution substrate.

Layers on :class:`~repro.parallel.executor.ShardPool` -- one dedicated
single-process executor per slot, rebuilt from ``Deco.spec()`` by
:func:`~.worker.init_service_worker` -- but with the *opposite* crash
policy: where the beam solve transparently re-runs a dead shard's chunk
in-process (pure math, safe to repeat anywhere), the service treats a
worker death as a **job event**: the job is reported ``crashed`` so the
dispatcher can journal the retry, apply backoff, and eventually
dead-letter it.  Nothing here ever re-runs a job silently.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Mapping

try:  # BrokenProcessPool only exists where process pools do
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover
    class BrokenProcessPool(RuntimeError):  # type: ignore[no-redef]
        pass

from repro.common.errors import DecoError
from repro.parallel.executor import ShardPool

from .worker import init_service_worker, solve_job

__all__ = ["ActiveJob", "WarmWorkerPool"]


class ActiveJob:
    """One job in flight on one worker slot."""

    __slots__ = ("job_id", "slot", "shard_job", "started_monotonic", "hang_after_s")

    def __init__(self, job_id: str, slot: int, shard_job, hang_after_s: float):
        self.job_id = job_id
        self.slot = slot
        self.shard_job = shard_job
        self.started_monotonic = time.monotonic()
        self.hang_after_s = hang_after_s

    @property
    def age_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    @property
    def hung(self) -> bool:
        return self.age_s > self.hang_after_s


class WarmWorkerPool:
    """Slot-addressed pool of warm Deco workers with explicit crash reporting."""

    def __init__(self, spec: Mapping[str, Any], workers: int = 2):
        self._pool = ShardPool(
            workers, initializer=init_service_worker, initargs=(spec,)
        )
        self.workers = self._pool.workers
        self._busy: dict[int, ActiveJob] = {}
        self.respawns = 0

    # -- introspection -----------------------------------------------------

    @property
    def is_serial(self) -> bool:
        """True when the environment downgraded to in-process execution."""
        return self._pool.is_serial

    def idle_slots(self) -> list[int]:
        return [slot for slot in range(self.workers) if slot not in self._busy]

    def active(self) -> list[ActiveJob]:
        return list(self._busy.values())

    def next_hang_in(self) -> float | None:
        """Seconds until the earliest running job trips the hang watchdog,
        or ``None`` when no job is running."""
        if not self._busy:
            return None
        return min(a.hang_after_s - a.age_s for a in self._busy.values())

    def worker_pids(self) -> list[int | None]:
        """Live worker pid per slot (chaos tooling kills by these)."""
        return self._pool.worker_pids()

    # -- dispatch / poll ---------------------------------------------------

    def dispatch(
        self,
        job_id: str,
        slot: int,
        payload: dict,
        *,
        hang_after_s: float = 600.0,
    ) -> ActiveJob:
        """Start ``payload`` on ``slot``; never blocks."""
        if slot in self._busy:
            raise ValueError(f"slot {slot} already has job {self._busy[slot].job_id}")
        shard_job = self._pool.submit(slot, solve_job, payload)
        active = ActiveJob(job_id, slot, shard_job, hang_after_s)
        self._busy[slot] = active
        return active

    def poll(self, active: ActiveJob) -> tuple[str, Any]:
        """Non-blocking status: ``("pending", None)`` | ``("done", envelope)``
        | ``("failed", exc)`` | ``("crashed", exc)``.

        ``failed`` is a deterministic Python-level error (infeasible
        deadline, bad payload) -- retrying cannot help.  ``crashed`` is
        a worker-process death -- the job may have been unlucky
        (OOM, chaos kill) and retrying on a fresh worker is sound.  A
        hung job (past ``hang_after_s``) is forcibly converted into a
        crash by respawning its worker.
        """
        sj = active.shard_job
        if sj.future is None:
            # Serial/fallback path, or dispatch-time crash: resolved inline.
            outcome = self._resolve_inline(sj)
        elif sj.future.done():
            try:
                outcome = ("done", sj.future.result())
            except BrokenProcessPool as exc:
                outcome = ("crashed", exc)
            except DecoError as exc:
                outcome = ("failed", exc)
            except Exception as exc:  # non-Deco worker bug: also terminal
                outcome = ("failed", exc)
        elif active.hung:
            outcome = ("crashed", TimeoutError(
                f"job {active.job_id} exceeded the {active.hang_after_s:g}s hang "
                f"watchdog on worker slot {active.slot}; worker respawned"
            ))
        else:
            return ("pending", None)
        if outcome[0] == "crashed":
            self.respawn(active.slot)
        self._busy.pop(active.slot, None)
        return outcome

    def _resolve_inline(self, sj) -> tuple[str, Any]:
        if sj.error is not None:
            return ("failed", sj.error)
        if sj.done:
            return ("done", sj.value)
        # Dispatch-time BrokenProcessPool left the job unresolved; report
        # it as the crash it was instead of silently re-running locally.
        return ("crashed", BrokenProcessPool("worker died at dispatch"))

    def respawn(self, slot: int) -> None:
        """Tear down and lazily recreate one slot's worker process.

        SIGKILLs the current worker first: ``shutdown(wait=False)``
        alone lets a *hung* worker linger until its job returns, which
        is exactly what the hang watchdog exists to prevent.
        """
        try:
            pid = self._pool.worker_pids()[slot]
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        except (OSError, IndexError):
            pass
        self._pool.respawn(slot)
        self._busy.pop(slot, None)
        self.respawns += 1

    def close(self) -> None:
        """Idempotent: releases every worker process."""
        self._busy.clear()
        self._pool.close()

    def __enter__(self) -> "WarmWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
