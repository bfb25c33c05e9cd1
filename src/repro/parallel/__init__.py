"""Deterministic multi-core fan-out for the embarrassingly parallel layers.

The solver kernel is already vectorized (PR 1); what remained serial was
everything *around* it: simulation replications (``run_many``), ensemble
member solves (``member_plans``), the bench drivers' configuration
sweeps and the beam search's candidate batches.  This package provides
the one process pool they all share:

* :class:`ShardPool` -- N single-worker executors with stable shard
  affinity and a prologue broadcast/replay protocol.  ``workers=1`` (or
  ``REPRO_WORKERS=0``) runs every job in-process; environments without
  process pools downgrade to that path with one warning; a worker that
  dies mid-job has its job re-run in-process.  It backs the distributed
  beam solve (``Deco(workers=N)``), the service's warm workers,
  ``run_many`` and ``solve_plans``;
* :mod:`repro.parallel.workers` -- the fork-aware per-worker context:
  module-level job functions plus initializers that rebuild pristine
  ``RngService`` / simulator / Deco state from picklable specs, so
  replications are **bit-identical regardless of worker count**.

The determinism contract is inherited from :mod:`repro.common.rng`:
every replication derives its stream statelessly from ``(seed, path)``
via ``spawn_rng``, so splitting the run-id range across processes cannot
perturb any individual run.
"""

from repro.parallel.arena import TensorArena, arena_available
from repro.parallel.executor import (
    ENV_WORKERS,
    ShardPool,
    chunk_evenly,
    resolve_workers,
    workers_from_env,
)

__all__ = [
    "ENV_WORKERS",
    "ShardPool",
    "TensorArena",
    "arena_available",
    "chunk_evenly",
    "resolve_workers",
    "workers_from_env",
]
