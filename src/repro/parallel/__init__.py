"""Deterministic multi-core fan-out for the embarrassingly parallel layers.

The solver kernel is already vectorized (PR 1); what remained serial was
everything *around* it: simulation replications (``run_many``), ensemble
member solves (``member_plans``) and the bench drivers' configuration
sweeps.  This package provides the one worker-pool abstraction they all
share:

* :class:`ParallelExecutor` / :func:`map_tasks` -- a thin, failure-aware
  wrapper over :class:`concurrent.futures.ProcessPoolExecutor` with a
  serial in-process fallback (``workers=1`` or ``REPRO_WORKERS=0``), and
  a clean single-warning downgrade when process pools are unavailable
  (restricted sandboxes, missing ``/dev/shm`` ...);
* :class:`ShardPool` -- N single-worker pools with stable shard
  affinity and a prologue broadcast/replay protocol, backing the
  distributed beam solve (``Deco(workers=N)``); shard-resident
  evaluation caches stay warm across beam iterations;
* :mod:`repro.parallel.workers` -- the fork-aware per-worker context:
  module-level task functions plus initializers that rebuild pristine
  ``RngService`` / simulator / Deco state from picklable specs, so
  results are **bit-identical regardless of worker count**.

The determinism contract is inherited from :mod:`repro.common.rng`:
every replication derives its stream statelessly from ``(seed, path)``
via ``spawn_rng``, so splitting the run-id range across processes cannot
perturb any individual run.
"""

from repro.parallel.arena import TensorArena, arena_available
from repro.parallel.executor import (
    ENV_WORKERS,
    ParallelExecutor,
    ShardPool,
    chunk_evenly,
    map_tasks,
    resolve_workers,
    workers_from_env,
)

__all__ = [
    "ENV_WORKERS",
    "ParallelExecutor",
    "ShardPool",
    "TensorArena",
    "arena_available",
    "chunk_evenly",
    "map_tasks",
    "resolve_workers",
    "workers_from_env",
]
