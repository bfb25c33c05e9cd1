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
  store one contiguous index column per parent slot; big fan-in levels
  (reduction tasks like Montage's ``mConcatFit``) one ``(n, P)`` gather
  matrix.  Padding slots point at a dedicated always-zero row, so "no
  parent" needs no branching;
* per level, how :meth:`LevelSchedule.propagate` reads those parents
  (``level_reads``): a parent read that is a slot range -- a chain
  link's column, a join whose parents are one level block -- is a
  ``slice``, i.e. a view of the finish matrix, and only scattered
  parents are gathered.

A schedule keeps only index data a kernel reads: a level's gather is
as wide as that level's fan-in, not the DAG's, so a Montage-8 layout
holds tens of KB.  It is never shipped: the shared-memory arena carries
the parent lists as CSR arrays (see ``repro.engine.compiler``) and a
shard worker rebuilds the schedule from them.

:meth:`LevelSchedule.propagate` is the one max-plus pass: it advances
a finish matrix, in place, one whole level per step with ``max``
reductions over every lane at once, dropping the Python-loop trip count
from N (tasks) to D (depth).  The Monte Carlo kernel
(:class:`~repro.solver.backends.VectorizedBackend`, one lane per sample
of each state), the deadline presets and the E401/W401 makespan bounds
(a lane per bound) all run it; :meth:`LevelSchedule.sink_max` is the
one makespan reduction.  The arithmetic per task is identical to the
per-task loop -- each finish time is ``max(parent finishes, 0) + task
time`` over the same operands, and ``max`` is exact and commutative
(reading a parent set in slot order rather than parent-list order moves
no bit) -- so results are bit-identical to the scalar reference backend,
which the test suite asserts.
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
    level_reads:
        Per level, how :meth:`propagate` reads the parents: ``None`` for
        roots; for fan-in <= 4, a tuple with one entry per column, the
        ``slice(a, a + n_L)`` when the column is exactly those slots in
        order, else the column itself; for big fan-in, the
        ``slice(a, a + n_L * P)`` when task t's parents are the slots
        ``a + t*P`` to ``a + (t+1)*P - 1`` (as a set, no padding), else
        the gather matrix.
    max_width:
        The widest level -- the rows of the level scratch.
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
    sink_range:
        The sink slots as a ``slice`` when they are one slot range, else
        ``None``.
    """

    num_tasks: int
    order: np.ndarray
    level_bounds: tuple[tuple[int, int], ...]
    level_parents: tuple[np.ndarray, ...]
    level_columns: tuple[tuple[np.ndarray, ...] | None, ...]
    level_reads: tuple
    max_width: int
    depth: np.ndarray
    rank: np.ndarray
    sink_slots: np.ndarray
    sink_range: slice | None

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
        level_reads: list = []
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
            columns = read = None
            if 0 < width <= _COLUMN_FANIN_MAX:
                columns = tuple(np.ascontiguousarray(gather[:, j]) for j in range(width))
                read = tuple(_slot_range(c, n) or c for c in columns)
            elif width:
                read = _slot_range(np.sort(gather, axis=1), n) or gather
            level_columns.append(columns)
            level_reads.append(read)
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
            level_reads=tuple(level_reads),
            max_width=max((hi - lo for lo, hi in bounds), default=0),
            depth=depth,
            rank=rank,
            sink_slots=sink_slots,
            sink_range=_slot_range(np.sort(sink_slots), n),
        )

    @property
    def num_levels(self) -> int:
        """D, the DAG depth (Python-loop trip count of the propagation)."""
        return len(self.level_bounds)

    def propagate(self, finish: np.ndarray, pool: ScratchPool) -> None:
        """Advance an ``(N+1, M)`` finish matrix through every level, in place.

        On entry, row ``r < N`` holds the own time, in each of M lanes,
        of the task in permuted slot ``r`` (task ``order[r]``) and row N
        is zero (the sentinel every padded parent slot reads).  On
        return, row ``r`` holds that task's finish time.  Per level,
        ``ready`` is the max over the parents' finish rows, added to the
        level's rows in place, and the parents are read as
        ``level_reads`` says: a slot range is a view of ``finish`` (a
        level of one such column adds it straight in; a wide block is
        one ``max`` over its ``(n, P, M)`` view), and scattered parents
        are row-``take``s -- a column into ``scratch_b``, a wide level
        in :data:`_TILE_BYTES` tiles through ``wide``.  Parents sit on
        earlier levels, so a view never overlaps the rows written.
        Scratch comes from ``pool`` under ``scratch_a``, ``scratch_b``
        and ``wide``.
        """
        m, dtype = finish.shape[1], finish.dtype
        buf_a = pool.take("scratch_a", (self.max_width, m), dtype)
        buf_b = pool.take("scratch_b", (self.max_width, m), dtype)
        for (lo, hi), read in zip(self.level_bounds, self.level_reads):
            if read is None:
                continue  # roots: the finish time is the own time
            k = hi - lo
            ready = buf_a[:k]
            # Every ``take`` reads slots of ``finish``: skip bounds checks.
            if isinstance(read, slice):
                # Wide fan-in over one block of slots: a view, no gather.
                np.max(finish[read].reshape(k, -1, m), axis=1, out=ready)
            elif isinstance(read, np.ndarray):
                # Scattered wide fan-in: as many tasks at a time as fit one tile.
                p = read.shape[1]
                step = max(1, _TILE_BYTES // (p * m * dtype.itemsize))
                for t0 in range(0, k, step):
                    part = read[t0 : t0 + step]
                    wide = pool.take("wide", (part.size, m), dtype)
                    np.take(finish, part.reshape(-1), axis=0, out=wide, mode="clip")
                    np.max(wide.reshape(len(part), p, m), axis=1, out=ready[t0 : t0 + len(part)])
            elif len(read) == 1 and isinstance(read[0], slice):
                np.add(finish[read[0]], finish[lo:hi], out=finish[lo:hi])
                continue
            else:
                for j, col in enumerate(read):
                    if isinstance(col, slice):
                        other = finish[col]
                    else:
                        other = buf_b[:k] if j else ready
                        np.take(finish, col, axis=0, out=other, mode="clip")
                    if j:
                        np.maximum(ready, other, out=ready)
                    elif other is not ready:
                        np.copyto(ready, other)
            np.add(ready, finish[lo:hi], out=finish[lo:hi])

    def sink_max(self, finish: np.ndarray, out: np.ndarray) -> None:
        """Per-lane makespans of a propagated finish matrix into ``(M,)`` ``out``.

        Task times are non-negative, so a finish time never decreases
        along an edge and every task's is dominated by some sink's;
        ``max`` is exact, so this equals the max over all rows.
        """
        if self.sink_range is not None:
            np.max(finish[self.sink_range], axis=0, out=out)
            return
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


def _slot_range(slots: np.ndarray, n: int) -> slice | None:
    """``slots``, flattened, as a ``slice`` when they are the consecutive
    slots ``a, a+1, ...`` below the sentinel row ``n``; else ``None``."""
    flat = slots.reshape(-1)
    if flat.size and flat[0] + flat.size <= n:
        a = int(flat[0])
        if np.array_equal(flat, np.arange(a, a + flat.size)):
            return slice(a, a + flat.size)
    return None


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
