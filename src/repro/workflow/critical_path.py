"""Makespan computation: critical paths and vectorized sample propagation.

Two makespan notions coexist in the paper:

* **Static critical path** (Eq. 3): the path maximizing the sum of
  (mean) task times; the makespan is that sum.  Used by the WLog
  reference programs (rules r1-r3 of Example 1).
* **Per-sample makespan**: with dynamic task times, each Monte Carlo
  realization can have a *different* critical path; the correct
  distributional makespan is the per-sample DAG longest path.
  :func:`makespan_samples` propagates an ``(S, N)`` sample matrix
  through a workflow in topological order -- N small column operations
  instead of S×N Python steps.  The "gpu" backend does not call it: its
  kernel (:class:`~repro.solver.backends.VectorizedBackend`) advances a
  whole :class:`~repro.solver.levels.LevelSchedule` level per step over
  a compiled problem, with the same arithmetic per task.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.common.errors import ValidationError
from repro.workflow.dag import Workflow

__all__ = ["critical_path", "static_makespan", "makespan_samples", "task_levels"]


def critical_path(
    workflow: Workflow,
    task_time: Mapping[str, float] | Callable[[str], float],
) -> tuple[tuple[str, ...], float]:
    """The longest path through ``workflow`` under the given task times.

    Returns ``(path, length)`` where ``path`` is the task-id sequence
    from an entry task to an exit task.  Ties break deterministically
    (topological order).
    """
    get = task_time.__getitem__ if isinstance(task_time, Mapping) else task_time
    finish: dict[str, float] = {}
    best_parent: dict[str, str | None] = {}
    for tid in workflow.task_ids:
        t = float(get(tid))
        if t < 0:
            raise ValidationError(f"negative task time for {tid!r}: {t}")
        parents = workflow.parents(tid)
        if parents:
            pbest = max(parents, key=lambda p: finish[p])
            finish[tid] = finish[pbest] + t
            best_parent[tid] = pbest
        else:
            finish[tid] = t
            best_parent[tid] = None
    if not finish:
        return ((), 0.0)
    end = max(finish, key=finish.__getitem__)
    path: list[str] = []
    cur: str | None = end
    while cur is not None:
        path.append(cur)
        cur = best_parent[cur]
    path.reverse()
    return (tuple(path), finish[end])


def static_makespan(
    workflow: Workflow,
    task_time: Mapping[str, float] | Callable[[str], float],
) -> float:
    """Length of the critical path (paper Eq. 3 with fixed times)."""
    return critical_path(workflow, task_time)[1]


def makespan_samples(workflow: Workflow, times: np.ndarray) -> np.ndarray:
    """Per-sample DAG longest path for an ``(S, N)`` time matrix.

    ``times[s, i]`` is the sampled execution time of the task with
    topological index ``i`` (see :meth:`Workflow.index_of`) in Monte
    Carlo realization ``s``.  Returns an ``(S,)`` vector of makespans.

    This is the vectorized core of the probabilistic constraint check
    ``P(t_w <= D) >= p``.  A floating ``times`` keeps its dtype (the
    makespans are computed and returned in it); any other is read as
    float64.
    """
    times = np.asarray(times)
    if not np.issubdtype(times.dtype, np.floating):
        times = times.astype(np.float64)
    if times.ndim == 1:
        times = times[None, :]
    n = len(workflow)
    if times.shape[1] != n:
        raise ValidationError(f"times has {times.shape[1]} columns, workflow has {n} tasks")
    if n == 0:
        return np.zeros(times.shape[0], times.dtype)
    if np.any(times < 0):
        raise ValidationError("negative task times")
    finish = np.empty_like(times)
    parent_idx: list[list[int]] = []
    for tid in workflow.task_ids:
        parent_idx.append([workflow.index_of(p) for p in workflow.parents(tid)])
    for i, parents in enumerate(parent_idx):
        if parents:
            ready = finish[:, parents[0]]
            for p in parents[1:]:
                ready = np.maximum(ready, finish[:, p])
            finish[:, i] = ready + times[:, i]
        else:
            finish[:, i] = times[:, i]
    return finish.max(axis=1)


def task_levels(workflow: Workflow) -> dict[str, int]:
    """Depth of each task: 0 for entry tasks, 1 + max(parent levels) else.

    The Autoscaling baseline's deadline-assignment heuristic partitions a
    workflow into levels and distributes the deadline across them.
    """
    levels: dict[str, int] = {}
    for tid in workflow.task_ids:
        parents = workflow.parents(tid)
        levels[tid] = 1 + max((levels[p] for p in parents), default=-1)
    return levels
