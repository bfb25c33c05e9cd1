"""The solver's plan-state representation.

A state assigns every task an instance-type index (0 = cheapest in the
default region), exactly the ``configs(Tid, Vid, Con)`` grounding of
the WLog ``var`` directive.  States are immutable and hashable so the
search's visited-set and pruning work on raw bytes.

The beam search itself carries states and their evaluations as arrays:
a :class:`StateBlock` is a batch of states (one ``(B, N)`` assignment
matrix, its row keys and lineage) and a :class:`BatchEval` the ``(B,)``
vectors an evaluation of it produces.  :class:`PlanState` and
:class:`StateEval` are the per-state view of the same data -- seeds,
the returned plan and the public per-state API --
:meth:`StateBlock.from_states` is the one adapter between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import SolverError

__all__ = ["PlanState", "StateEval", "StateBlock", "BatchEval", "as_block", "row_keys"]


class PlanState:
    """An immutable instance-type assignment vector.

    States produced by the single-task edit operations
    (:meth:`with_type` / :meth:`promote` / :meth:`demote`) additionally
    carry their *lineage*: ``parent_key`` is the originating state's
    :attr:`key` and ``dirty`` the tuple of task indices whose assignment
    changed.  Lineage is evaluation metadata only -- equality and
    hashing look at the assignment bytes alone -- and lets the
    incremental evaluator reuse the parent's cached finish-time frontier
    and re-propagate only the levels the dirty tasks can affect.
    """

    __slots__ = ("assignment", "_key", "parent_key", "dirty")

    def __init__(
        self,
        assignment: np.ndarray,
        parent_key: bytes | None = None,
        dirty: tuple[int, ...] | None = None,
    ):
        arr = np.asarray(assignment, dtype=np.int16)
        if arr.ndim != 1:
            raise SolverError(f"assignment must be 1-D, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise SolverError("assignment contains negative type indices")
        arr = arr.copy()
        arr.setflags(write=False)
        self.assignment = arr
        self._key = arr.tobytes()
        if (parent_key is None) != (dirty is None):
            raise SolverError("parent_key and dirty must be given together")
        self.parent_key = parent_key
        self.dirty = dirty

    @classmethod
    def uniform(cls, num_tasks: int, type_index: int = 0) -> "PlanState":
        """Every task on the same type (the paper's initial state uses 0)."""
        return cls(np.full(num_tasks, type_index, dtype=np.int16))

    def __len__(self) -> int:
        return int(self.assignment.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, PlanState) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def key(self) -> bytes:
        return self._key

    def with_type(self, task_index: int, type_index: int) -> "PlanState":
        """A copy with one task reassigned (lineage records the dirty task).

        The search builds every child through here, so the edit of an
        already validated state skips the constructor's re-validation
        and second copy.
        """
        if type_index < 0:
            raise SolverError("assignment contains negative type indices")
        arr = self.assignment.copy()
        arr[task_index] = type_index
        arr.setflags(write=False)
        child = object.__new__(PlanState)
        child.assignment = arr
        child._key = arr.tobytes()
        child.parent_key = self._key
        child.dirty = (int(task_index),)
        return child

    def promote(self, task_index: int, num_types: int) -> "PlanState | None":
        """Promote one task (None when already on the top type)."""
        cur = int(self.assignment[task_index])
        if cur + 1 >= num_types:
            return None
        return self.with_type(task_index, cur + 1)

    def demote(self, task_index: int) -> "PlanState | None":
        """Demote one task (None when already on the cheapest type)."""
        cur = int(self.assignment[task_index])
        if cur == 0:
            return None
        return self.with_type(task_index, cur - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlanState({self.assignment.tolist()})"


@dataclass(frozen=True)
class StateEval:
    """Evaluation of one state against the compiled problem.

    ``cost`` is the paper's Eq. 1 objective; ``probability`` estimates
    P(makespan <= deadline); ``feasible`` is that probability meeting
    the declared percentile; ``mean_makespan`` is informational.
    ``source`` records which evaluation tier produced the numbers --
    ``"mc"`` for Monte Carlo backends, ``"analytic"`` for the
    moment-propagation backend -- so cascade introspection and the
    benchmarks can attribute evaluations without guessing.
    """

    cost: float
    probability: float
    feasible: bool
    mean_makespan: float
    source: str = "mc"

    def better_than(self, other: "StateEval | None", mode: str = "minimize") -> bool:
        """Feasibility-first comparison used by the search."""
        if other is None:
            return True
        if self.feasible != other.feasible:
            return self.feasible
        if not self.feasible:
            return self.probability > other.probability
        if mode == "minimize":
            return self.cost < other.cost
        return self.cost > other.cost


def row_keys(assign: np.ndarray) -> list[bytes]:
    """Every row's :attr:`PlanState.key`, cut from one ``tobytes``."""
    raw = assign.tobytes()
    width = assign.shape[1] * assign.itemsize
    if not width:
        return [b""] * len(assign)
    return [raw[i : i + width] for i in range(0, len(raw), width)]


class StateBlock:
    """A batch of plan states as arrays: the beam's unit of work.

    ``assign`` is the read-only ``(B, N)`` int16 assignment matrix and
    ``keys[b]`` row ``b``'s bytes -- equal to the :attr:`PlanState.key` of
    the same assignment.  The lineage of :class:`PlanState` is kept per
    row: ``parent_keys[b]`` is the key of the state row ``b`` was edited
    from (``None`` without lineage), and ``dirty[b]`` the tasks that edit
    changed, padded with ``-1`` to the widest set of the block (a
    ``(B, 0)`` matrix when no row has lineage).  The constructor trusts
    its arguments; :meth:`from_states` builds a block from
    :class:`PlanState` objects.
    """

    __slots__ = ("assign", "keys", "parent_keys", "dirty")

    def __init__(
        self,
        assign: np.ndarray,
        keys: list[bytes] | None = None,
        parent_keys: list[bytes | None] | None = None,
        dirty: np.ndarray | None = None,
    ):
        assign = np.ascontiguousarray(assign, dtype=np.int16)
        if assign.ndim != 2:
            raise SolverError(f"a state block is 2-D, got shape {assign.shape}")
        assign.setflags(write=False)
        self.assign = assign
        self.keys = row_keys(assign) if keys is None else keys
        self.parent_keys = [None] * len(assign) if parent_keys is None else parent_keys
        self.dirty = np.full((len(assign), 0), -1, dtype=np.int64) if dirty is None else dirty

    @classmethod
    def _of(cls, assign, keys, parent_keys, dirty) -> "StateBlock":
        """A block of parts already in block form (no conversion, no checks)."""
        block = object.__new__(cls)
        assign.setflags(write=False)
        block.assign, block.keys, block.parent_keys, block.dirty = (
            assign, keys, parent_keys, dirty
        )
        return block

    @classmethod
    def from_states(cls, states: Iterable[PlanState]) -> "StateBlock":
        """The block of ``states``, in order, lineage included."""
        states = list(states)
        if not states:
            return cls(np.empty((0, 0), dtype=np.int16))
        sizes = {len(st) for st in states}
        if len(sizes) > 1:
            raise SolverError(f"states of one block differ in length: {sorted(sizes)}")
        width = max(len(st.dirty or ()) for st in states)
        dirty = np.full((len(states), width), -1, dtype=np.int64)
        for row, st in zip(dirty, states):
            if st.dirty:
                if min(st.dirty) < 0:
                    raise SolverError(f"dirty task set {st.dirty!r} out of range")
                row[: len(st.dirty)] = st.dirty
        return cls(
            np.stack([st.assignment for st in states]),
            [st.key for st in states],
            [st.parent_key for st in states],
            dirty,
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __reduce__(self):
        # The keys are the assignment's bytes: a pickled block ships them once.
        return (StateBlock, (self.assign, None, self.parent_keys, self.dirty))

    @property
    def num_tasks(self) -> int:
        return self.assign.shape[1]

    def take(self, rows: Sequence[int] | np.ndarray) -> "StateBlock":
        """The block of ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        keys, parents = self.keys, self.parent_keys
        index = rows.tolist()
        return StateBlock._of(
            self.assign[rows],
            [keys[i] for i in index],
            [parents[i] for i in index],
            self.dirty[rows],
        )

    @classmethod
    def concat(cls, blocks: Sequence["StateBlock"]) -> "StateBlock":
        """The rows of ``blocks``, one after another."""
        blocks = [b for b in blocks if len(b)]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls(np.empty((0, 0), dtype=np.int16))
        width = max(b.dirty.shape[1] for b in blocks)
        dirty = np.full((sum(map(len, blocks)), width), -1, dtype=np.int64)
        start = 0
        for b in blocks:
            dirty[start : start + len(b), : b.dirty.shape[1]] = b.dirty
            start += len(b)
        return cls._of(
            np.concatenate([b.assign for b in blocks]),
            [key for b in blocks for key in b.keys],
            [key for b in blocks for key in b.parent_keys],
            dirty,
        )

    def parents_of(self, children: "StateBlock") -> "StateBlock":
        """The rows of this block that some row of ``children`` was edited from."""
        needed = set(children.parent_keys)
        rows = [i for i, key in enumerate(self.keys) if key in needed]
        return self if len(rows) == len(self) else self.take(rows)

    def state(self, row: int) -> PlanState:
        """Row ``row`` as a :class:`PlanState`, lineage included."""
        dirty = self.dirty[row]
        parent = self.parent_keys[row]
        return PlanState(
            self.assign[row],
            parent_key=parent,
            dirty=None if parent is None else tuple(dirty[dirty >= 0].tolist()),
        )

    def dirty_sets(self, rows: np.ndarray, num_tasks: int) -> tuple[np.ndarray, np.ndarray]:
        """The dirty sets of ``rows``, flattened: ``(sizes, tasks)``.

        ``tasks`` concatenates the rows' dirty tasks in row order and
        ``sizes[j]`` is the length of row ``rows[j]``'s set.  Raises
        :class:`SolverError` when a set is empty or names a task outside
        a problem of ``num_tasks`` tasks.
        """
        dirty = self.dirty[rows]
        real = dirty >= 0
        sizes = real.sum(axis=1)
        tasks = dirty[real]
        if not sizes.size:
            return sizes, tasks
        if sizes.min() == 0 or tasks.max() >= num_tasks:
            bad = next(
                j for j, size in enumerate(sizes.tolist())
                if not size or dirty[j][real[j]].max() >= num_tasks
            )
            raise SolverError(
                f"dirty task set {tuple(dirty[bad][real[bad]].tolist())!r} out of range "
                f"for {num_tasks} tasks"
            )
        return sizes, tasks


def as_block(states: "StateBlock | Iterable[PlanState]") -> StateBlock:
    """``states`` as a :class:`StateBlock` (a block passes through)."""
    if isinstance(states, StateBlock):
        return states
    return StateBlock.from_states(states)


class BatchEval:
    """Evaluations of a batch of states, one ``(B,)`` vector per field.

    The array form of a list of :class:`StateEval`: ``cost``,
    ``probability`` and ``mean_makespan`` are float64, ``feasible`` is
    bool and ``source`` a string array (``"mc"`` / ``"analytic"``).
    Indexing with an int (and iterating) gives the per-state
    :class:`StateEval`; :meth:`take` and :meth:`concat` stay arrays.
    """

    __slots__ = ("cost", "probability", "feasible", "mean_makespan", "source")

    def __init__(self, cost, probability, feasible, mean_makespan, source):
        self.cost = cost
        self.probability = probability
        self.feasible = feasible
        self.mean_makespan = mean_makespan
        self.source = source

    @classmethod
    def empty(cls, size: int = 0) -> "BatchEval":
        """``size`` unset rows (NaN numbers, infeasible, no source)."""
        nan = np.full(size, np.nan)
        return cls(
            nan, nan.copy(), np.zeros(size, dtype=bool), nan.copy(), np.full(size, "", "<U8")
        )

    def __len__(self) -> int:
        return len(self.cost)

    def __getitem__(self, row: int) -> StateEval:
        return StateEval(
            cost=float(self.cost[row]),
            probability=float(self.probability[row]),
            feasible=bool(self.feasible[row]),
            mean_makespan=float(self.mean_makespan[row]),
            source=str(self.source[row]),
        )

    def __iter__(self) -> Iterator[StateEval]:
        return (self[row] for row in range(len(self)))

    def take(self, rows: Sequence[int] | np.ndarray) -> "BatchEval":
        """The evaluations of ``rows``, in that order."""
        return BatchEval(
            self.cost[rows], self.probability[rows], self.feasible[rows],
            self.mean_makespan[rows], self.source[rows],
        )

    def put(self, rows: np.ndarray, other: "BatchEval") -> None:
        """Write ``other``'s rows into ``rows`` of this batch."""
        self.cost[rows] = other.cost
        self.probability[rows] = other.probability
        self.feasible[rows] = other.feasible
        self.mean_makespan[rows] = other.mean_makespan
        self.source[rows] = other.source

    @classmethod
    def concat(cls, parts: Sequence["BatchEval"]) -> "BatchEval":
        """The rows of ``parts``, one after another."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty(0)
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in cls.__slots__))
