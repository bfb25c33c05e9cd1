"""Topological level schedule: the level-parallel DAG layout.

The per-task propagation loop in the vectorized backend costs one
Python iteration (and a handful of NumPy calls) per *task*; for wide
DAGs like Montage that is hundreds of interpreter round-trips to do
what is structurally ~9 levels of independent work.  A
:class:`LevelSchedule` precomputes, once per compiled problem:

* a **level-contiguous permutation** of the task axis: tasks sorted by
  topological level (stably, so topological order is preserved inside a
  level), which turns every level's finish-time block into a contiguous
  row slice -- level updates become slice writes instead of scattered
  fancy assignments;
* per level, the parent row-gather indices in permuted coordinates.
  Narrow fan-in levels (``P <= 4``, the common wide-workflow case)
  store one contiguous index column per parent slot so propagation is
  P row-``take``s + running ``maximum``; big fan-in levels (reduction
  tasks like Montage's ``mConcatFit``) use one 3-D gather + ``max``.
  Padding slots point at a dedicated always-zero row, so "no parent"
  needs no branching.

A schedule keeps only index data a kernel reads: a level's gather is
as wide as that level's fan-in, not the DAG's, so a Montage-8 layout
holds tens of KB.  It is never shipped: the shared-memory arena carries
the parent lists as CSR arrays (see ``repro.engine.compiler``) and a
shard worker rebuilds the schedule from them.

:meth:`LevelSchedule.propagate` is the one max-plus pass: it advances
a finish matrix, in place, one whole level per step with fused gather +
``max`` reductions over every lane at once, dropping the Python-loop
trip count from N (tasks) to D (depth).  The Monte Carlo kernel
(:class:`~repro.solver.backends.VectorizedBackend`, one lane per sample
of each state), the deadline presets and the E401/W401 makespan bounds
(a lane per bound) all run it; :meth:`LevelSchedule.sink_max` is the
one makespan reduction.  The arithmetic per task is identical to the
per-task loop -- each finish time is ``max(parent finishes, 0) + task
time`` over the same operands, and ``max`` is exact -- so results are
bit-identical to the scalar reference backend, which the test suite
asserts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.common.errors import SolverError
from repro.solver.cache import ScratchPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.dag import Workflow

__all__ = ["LevelSchedule", "workflow_layout"]

# Fan-in at or below this uses per-parent-slot column takes; above it,
# a single 3-D gather + max reduction (big fan-in, few tasks).
_COLUMN_FANIN_MAX = 4

#: A wide-fan-in level is gathered in tiles of about this many bytes,
#: as many tasks at a time as fit (at least one): a 402-parent task of
#: Montage-8 is 0.5 MB at S = 150, and the measured kernel is
#: insensitive from one task per tile upwards.  It bounds the pooled
#: ``wide`` buffer whatever the batch size.
_TILE_BYTES = 512 << 10


@dataclass(frozen=True)
class LevelSchedule:
    """Precomputed level structure of a task DAG (topological indices).

    Attributes
    ----------
    num_tasks:
        N, the number of tasks.
    order:
        ``(N,)`` int64; ``order[r]`` is the original index of the task
        in permuted slot ``r``.  Tasks are sorted by level, stably, so
        each level occupies one contiguous slot range.
    level_bounds:
        Per level, the ``(lo, hi)`` permuted slot range.
    level_parents:
        Per level, an ``(n_L, P_L)`` int64 matrix of parent *slots*
        (permuted coordinates).  Padding entries are ``num_tasks``: they
        index the finish matrix's always-zero row N, so a padded gather
        behaves like "no parent" without branching.
    level_columns:
        Per level: for fan-in <= 4, a tuple of P contiguous ``(n_L,)``
        parent-slot columns (the fast row-``take`` path); ``None`` for
        big fan-in levels, which use ``level_parents`` directly.
    depth:
        ``(N,)`` int64; ``depth[i]`` is task i's topological level in the
        *original* numbering.
    rank:
        ``(N,)`` int64; ``rank[i]`` is task i's permuted slot (inverse of
        ``order``).
    sink_slots:
        Permuted slots of tasks with no children.  Because every child's
        finish time is >= each parent's (task times are non-negative),
        the makespan equals the max over sink finishes alone -- the
        kernels' final reduction.
    """

    num_tasks: int
    order: np.ndarray
    level_bounds: tuple[tuple[int, int], ...]
    level_parents: tuple[np.ndarray, ...]
    level_columns: tuple[tuple[np.ndarray, ...] | None, ...]
    depth: np.ndarray
    rank: np.ndarray
    sink_slots: np.ndarray

    @classmethod
    def from_parent_indices(
        cls, parent_indices: Sequence[Sequence[int]]
    ) -> "LevelSchedule":
        """Build the schedule from per-task parent lists (topological order)."""
        n = len(parent_indices)
        depth = np.zeros(n, dtype=np.int64)
        for i, parents in enumerate(parent_indices):
            for p in parents:
                if not 0 <= p < i:
                    raise SolverError(
                        f"parent index {p} of task {i} violates topological order"
                    )
            if len(parents):
                depth[i] = 1 + max(depth[p] for p in parents)

        order = np.argsort(depth, kind="stable").astype(np.int64)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)

        num_levels = int(depth.max()) + 1 if n else 0
        bounds: list[tuple[int, int]] = []
        level_parents: list[np.ndarray] = []
        level_columns: list[tuple[np.ndarray, ...] | None] = []
        lo = 0
        for lv in range(num_levels):
            tasks = order[lo : lo + int((depth == lv).sum())]
            hi = lo + tasks.size
            width = max((len(parent_indices[i]) for i in tasks), default=0)
            gather = np.full((tasks.size, width), n, dtype=np.int64)
            for row, i in enumerate(tasks):
                for j, p in enumerate(parent_indices[i]):
                    gather[row, j] = rank[p]
            bounds.append((lo, hi))
            level_parents.append(gather)
            if 0 < width <= _COLUMN_FANIN_MAX:
                level_columns.append(
                    tuple(np.ascontiguousarray(gather[:, j]) for j in range(width))
                )
            else:
                level_columns.append(None)
            lo = hi

        is_parent = np.zeros(n, dtype=bool)
        for parents in parent_indices:
            for p in parents:
                is_parent[p] = True
        sink_slots = np.ascontiguousarray(rank[~is_parent])

        for arr in (order, rank, depth, sink_slots, *level_parents):
            arr.setflags(write=False)
        return cls(
            num_tasks=n,
            order=order,
            level_bounds=tuple(bounds),
            level_parents=tuple(level_parents),
            level_columns=tuple(level_columns),
            depth=depth,
            rank=rank,
            sink_slots=sink_slots,
        )

    @property
    def num_levels(self) -> int:
        """D, the DAG depth (Python-loop trip count of the propagation)."""
        return len(self.level_bounds)

    @property
    def max_width(self) -> int:
        """Widest level -- the amount of per-iteration parallelism."""
        return max((hi - lo for lo, hi in self.level_bounds), default=0)

    def propagate(self, finish: np.ndarray, pool: ScratchPool) -> None:
        """Advance an ``(N+1, M)`` finish matrix through every level, in place.

        On entry, row ``r < N`` holds the own time, in each of M lanes,
        of the task in permuted slot ``r`` (task ``order[r]``) and row N
        is zero (the sentinel every padded parent slot reads).  On
        return, row ``r`` holds that task's finish time.  Per level,
        ``ready`` is the max over the parents' finish rows (column takes
        + ``maximum`` for narrow fan-in, a 3-D gather + ``max`` in
        :data:`_TILE_BYTES` tiles for wide fan-in), added to the level's
        rows in place.  Scratch comes from ``pool`` under ``scratch_a``,
        ``scratch_b`` and ``wide``.
        """
        m, dtype = finish.shape[1], finish.dtype
        w = self.max_width
        buf_a = pool.take("scratch_a", (w, m), dtype)
        buf_b = pool.take("scratch_b", (w, m), dtype)
        for (lo, hi), gather, columns in zip(
            self.level_bounds, self.level_parents, self.level_columns
        ):
            p = gather.shape[1]
            if p == 0:
                continue  # roots: the finish time is the own time
            k = hi - lo
            ready = buf_a[:k]
            # Gather indices are slots of ``finish``; skip bounds checks.
            if columns is not None:
                np.take(finish, columns[0], axis=0, out=ready, mode="clip")
                for col in columns[1:]:
                    other = buf_b[:k]
                    np.take(finish, col, axis=0, out=other, mode="clip")
                    np.maximum(ready, other, out=ready)
            else:
                # Big fan-in, few tasks: as many tasks at a time as fit one tile.
                step = max(1, _TILE_BYTES // (p * m * dtype.itemsize))
                for t0 in range(0, k, step):
                    part = gather[t0 : t0 + step]
                    wide = pool.take("wide", (part.size, m), dtype)
                    np.take(finish, part.reshape(-1), axis=0, out=wide, mode="clip")
                    np.max(wide.reshape(len(part), p, m), axis=1, out=ready[t0 : t0 + len(part)])
            np.add(ready, finish[lo:hi], out=finish[lo:hi])

    def sink_max(self, finish: np.ndarray, out: np.ndarray) -> None:
        """Per-lane makespans of a propagated finish matrix into ``(M,)`` ``out``.

        Task times are non-negative, so a finish time never decreases
        along an edge and every task's is dominated by some sink's;
        ``max`` is exact, so this equals the max over all rows.
        """
        sinks = self.sink_slots.tolist()
        out[...] = finish[sinks[0]] if sinks else 0.0
        for t in sinks[1:]:
            np.maximum(out, finish[t], out=out)

    def makespan(self, times: np.ndarray) -> np.ndarray:
        """Per-lane makespans ``(M,)`` of ``(N, M)`` task times in topological task order."""
        n = self.num_tasks
        if times.shape[0] != n:
            raise SolverError(f"times have {times.shape[0]} tasks, schedule has {n}")
        finish = np.zeros((n + 1, times.shape[1]), dtype=times.dtype)
        np.take(times, self.order, axis=0, out=finish[:n])
        self.propagate(finish, ScratchPool())
        out = np.empty(times.shape[1], dtype=times.dtype)
        self.sink_max(finish, out)
        return out


#: Workflow -> (parent index tuples, schedule).  Weak-keyed: an entry
#: lives exactly as long as its workflow object, and a schedule holds
#: index arrays only, so nothing here keeps a workflow (or a compiled
#: problem) alive.
_LAYOUTS: "weakref.WeakKeyDictionary[Workflow, tuple]" = weakref.WeakKeyDictionary()


def workflow_layout(
    workflow: "Workflow",
) -> tuple[tuple[tuple[int, ...], ...], LevelSchedule]:
    """``(parent_indices, schedule)`` of ``workflow``, built once per object.

    A workflow is immutable after construction, so its dense parent
    tuples (topological order, the compiler's layout) and level
    schedule are too; every compile, deadline preset and warm-start
    ladder over the same workflow object shares one copy.
    """
    layout = _LAYOUTS.get(workflow)
    if layout is None:
        index_of = workflow.index_of
        parents = tuple(
            tuple(index_of(p) for p in workflow.parents(tid)) for tid in workflow.task_ids
        )
        layout = _LAYOUTS[workflow] = (parents, LevelSchedule.from_parent_indices(parents))
    return layout
