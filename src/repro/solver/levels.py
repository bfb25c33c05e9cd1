"""Topological level schedule: the level-parallel DAG layout and the one level pass.

A :class:`LevelSchedule` precomputes, once per compiled problem:

* a **level-contiguous permutation** of the task axis: tasks sorted by
  topological level (stably, so topological order is preserved inside a
  level), so every level's finish rows are one contiguous row slice;
* per level, how the pass reads the parents (``level_reads``): a
  narrow level (fan-in <= 4) has one parent-slot column per parent
  position -- a ``slice``, i.e. a view of the finish matrix, when the
  column is a slot range (a chain link, a join over one level block),
  else the column to ``take``; a wide level (Montage's ``mConcatFit``)
  is a :class:`WideRead`.  Padding slots point at a dedicated
  always-zero row, so "no parent" needs no branching.

A schedule keeps only index data (tens of KB on Montage-8) and is never
shipped: the shared-memory arena carries the parent lists as CSR arrays
(see ``repro.engine.compiler``) and a shard worker rebuilds it.

:meth:`LevelSchedule.propagate` is the one level pass, D (depth) Python
iterations instead of N (tasks): per level a join folds the parents'
rows into ``ready``, which is added in place to the level's own rows.
The join is the part that varies.  :class:`MaxJoin`, exact and
commutative, serves the Monte Carlo kernel (one lane per sample of each
state), the deadline presets and the E401/W401 makespan bounds, and
reads a wide level's slot-order block view.  Tier 0's Clark join
(:mod:`repro.solver.analytic_backend`) and the critical paths'
first-winner join (:mod:`repro.solver.expand`) depend on operand order,
so they read a wide level's gather, in parent-list order.  Each finish
is one ``ready + own`` add over the per-task loop's operands, so the
Monte Carlo results are bit-identical to the scalar reference backend.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from repro.common.errors import SolverError
from repro.solver.cache import ScratchPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.dag import Workflow

__all__ = ["LevelSchedule", "MaxJoin", "WideRead", "copy_rows", "workflow_layout"]

# Fan-in at or below this reads one parent-slot column per parent
# position; above it, one gather per level (big fan-in, few tasks).
_COLUMN_FANIN_MAX = 4

#: A wide-fan-in level is gathered in tiles of about this many bytes,
#: as many tasks at a time as fit (at least one): a 402-parent task of
#: Montage-8 is 0.5 MB at S = 150, and the measured kernel is
#: insensitive from one task per tile upwards.  It bounds the pooled
#: ``wide`` buffer whatever the batch size.
_TILE_BYTES = 512 << 10


class WideRead(NamedTuple):
    """A wide level's parents (fan-in above 4): ``gather``, the ``(n_L,
    P_L)`` parent slots in parent-list order, padded with the sentinel
    slot N; ``block``, ``slice(a, a + n_L * P_L)`` when task t's
    parents, as a set, are the t-th block of P_L slots, else ``None``."""

    gather: np.ndarray
    block: slice | None


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
    level_reads:
        Per level, how :meth:`propagate` reads the parents: ``None`` for
        roots; for fan-in <= 4, per parent position j a ``slice`` when
        the tasks' j-th parents (or the sentinel N) are consecutive
        slots, else that ``(n_L,)`` slot column; else a :class:`WideRead`.
    max_width:
        The widest level -- the rows of the level scratch.
    max_read:
        The most parent rows one level reads (tier 0's scratch rows).
    depth:
        ``(N,)`` int64; ``depth[i]`` is task i's topological level in the
        *original* numbering.
    rank:
        ``(N,)`` int64; ``rank[i]`` is task i's permuted slot (inverse of
        ``order``).
    sink_slots:
        Permuted slots of tasks with no children, in task order.
        Because every child's finish time is >= each parent's (task
        times are non-negative), the makespan equals the max over sink
        finishes alone -- the kernels' final reduction.
    sink_range:
        The sink slots as a ``slice`` when they are one slot range, else
        ``None``.
    """

    num_tasks: int
    order: np.ndarray
    level_bounds: tuple[tuple[int, int], ...]
    level_reads: tuple
    max_width: int
    max_read: int
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
        level_reads: list = []
        lo = max_gather = 0
        for lv in range(num_levels):
            tasks = order[lo : lo + int((depth == lv).sum())]
            hi = lo + tasks.size
            width = max((len(parent_indices[i]) for i in tasks), default=0)
            gather = np.full((tasks.size, width), n, dtype=np.int64)
            for row, i in enumerate(tasks):
                for j, p in enumerate(parent_indices[i]):
                    gather[row, j] = rank[p]
            gather.setflags(write=False)
            bounds.append((lo, hi))
            read = None
            if 0 < width <= _COLUMN_FANIN_MAX:
                columns = (np.ascontiguousarray(gather[:, j]) for j in range(width))
                read = tuple(_slot_range(c, n) or c for c in columns)
            elif width:
                read = WideRead(gather, _slot_range(np.sort(gather, axis=1), n))
                max_gather = max(max_gather, gather.size)
            level_reads.append(read)
            lo = hi

        is_parent = np.zeros(n, dtype=bool)
        for parents in parent_indices:
            for p in parents:
                is_parent[p] = True
        sink_slots = np.ascontiguousarray(rank[~is_parent])

        for arr in (order, rank, depth, sink_slots):
            arr.setflags(write=False)
        max_width = max((hi - lo for lo, hi in bounds), default=0)
        return cls(
            num_tasks=n,
            order=order,
            level_bounds=tuple(bounds),
            level_reads=tuple(level_reads),
            max_width=max_width,
            max_read=max(max_width, max_gather),
            depth=depth,
            rank=rank,
            sink_slots=sink_slots,
            sink_range=_slot_range(np.sort(sink_slots), n),
        )

    @property
    def num_levels(self) -> int:
        """D, the DAG depth (Python-loop trip count of the propagation)."""
        return len(self.level_bounds)

    def propagate(self, finish: np.ndarray, join) -> None:
        """Advance a ``(..., N+1, M)`` finish array through every level, in place.

        Rows are the second-to-last axis (tier 0 holds a ``(2, N+1, b)``
        mean/variance pair).  On entry, row ``r < N`` holds the own time
        of the task in permuted slot ``r`` (task ``order[r]``) in each of
        M lanes and row N is zero; on return, row ``r`` holds its finish
        time.  Per level, ``join.narrow(finish, columns, lo, hi)`` or
        ``join.wide(finish, read, lo, hi)`` returns ``ready``, which may
        be a view of earlier levels' rows, and it is added in place.
        """
        for (lo, hi), read in zip(self.level_bounds, self.level_reads):
            if read is None:
                continue  # roots: the finish time is the own time
            if isinstance(read, WideRead):
                ready = join.wide(finish, read, lo, hi)
            else:
                ready = join.narrow(finish, read, lo, hi)
            rows = finish[..., lo:hi, :]
            np.add(ready, rows, out=rows)

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
        self.propagate(finish, MaxJoin(ScratchPool(), finish, self.max_width))
        out = np.empty(times.shape[1], dtype=times.dtype)
        self.sink_max(finish, out)
        return out


def _read_rows(finish: np.ndarray, column, out: np.ndarray) -> np.ndarray:
    """The finish rows (second-to-last axis) of one parent column: a view
    of ``finish`` for a slot range, else a row ``take`` into ``out``."""
    if isinstance(column, slice):
        return finish[..., column, :]
    # Every column holds slots of ``finish``: skip the bounds checks.
    return np.take(finish, column, axis=-2, out=out, mode="clip")


def copy_rows(finish: np.ndarray, column, out: np.ndarray) -> np.ndarray:
    """:func:`_read_rows` into ``out`` also for a slot range."""
    rows = _read_rows(finish, column, out)
    if rows is not out:
        np.copyto(out, rows)
    return out


class MaxJoin:
    """The max-plus join.  ``max`` is exact and commutative, so a wide
    level reads its block view when it has one, else its gather in
    :data:`_TILE_BYTES` tiles; a chain link of one slot range is its
    parents' rows.  Scratch is ``rows`` x M blocks of ``pool``."""

    def __init__(self, pool: ScratchPool, finish: np.ndarray, rows: int):
        self.pool = pool
        m, dtype = finish.shape[1], finish.dtype
        self.a = pool.take("scratch_a", (rows, m), dtype)
        self.b = pool.take("scratch_b", (rows, m), dtype)

    def narrow(self, finish: np.ndarray, columns: tuple, lo: int, hi: int) -> np.ndarray:
        if len(columns) == 1 and isinstance(columns[0], slice):
            return finish[columns[0]]
        ready = copy_rows(finish, columns[0], self.a[: hi - lo])
        for col in columns[1:]:
            np.maximum(ready, _read_rows(finish, col, self.b[: hi - lo]), out=ready)
        return ready

    def wide(self, finish: np.ndarray, read: WideRead, lo: int, hi: int) -> np.ndarray:
        k, m = hi - lo, finish.shape[1]
        ready = self.a[:k]
        if read.block is not None:
            np.max(finish[read.block].reshape(k, -1, m), axis=1, out=ready)
            return ready
        p = read.gather.shape[1]
        step = max(1, _TILE_BYTES // (p * m * finish.dtype.itemsize))
        for t0 in range(0, k, step):
            part = read.gather[t0 : t0 + step]
            wide = self.pool.take("wide", (part.size, m), finish.dtype)
            np.take(finish, part.reshape(-1), axis=0, out=wide, mode="clip")
            np.max(wide.reshape(len(part), p, m), axis=1, out=ready[t0 : t0 + len(part)])
        return ready


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
