"""The solver's plan-state representation.

A state assigns every task an instance-type index (0 = cheapest in the
default region), exactly the ``configs(Tid, Vid, Con)`` grounding of
the WLog ``var`` directive.  States are immutable and hashable so the
search's visited-set and pruning work on raw bytes.

The beam search itself carries states and their evaluations as arrays:
a :class:`StateBlock` is a batch of states (one ``(B, N)`` assignment
matrix and its row keys) and a :class:`BatchEval` the ``(B,)``
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

    Equality and hashing look at the assignment bytes (:attr:`key`).
    """

    __slots__ = ("assignment", "_key")

    def __init__(self, assignment: np.ndarray):
        arr = np.asarray(assignment, dtype=np.int16)
        if arr.ndim != 1:
            raise SolverError(f"assignment must be 1-D, got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise SolverError("assignment contains negative type indices")
        arr = arr.copy()
        arr.setflags(write=False)
        self.assignment = arr
        self._key = arr.tobytes()

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
        """A copy with one task reassigned.

        :meth:`promote` and :meth:`demote` build their child through
        here, so the edit of an already validated state skips the
        constructor's re-validation and second copy.
        """
        if type_index < 0:
            raise SolverError("assignment contains negative type indices")
        arr = self.assignment.copy()
        arr[task_index] = type_index
        arr.setflags(write=False)
        child = object.__new__(PlanState)
        child.assignment = arr
        child._key = arr.tobytes()
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

    def better_than(self, other: "StateEval | None") -> bool:
        """The feasibility-first incumbent rule, one pair at a time: the
        scalar reference ``GenericSearch._improvements`` is tested against."""
        if other is None:
            return True
        if self.feasible != other.feasible:
            return self.feasible
        if not self.feasible:
            return self.probability > other.probability
        return self.cost < other.cost


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
    the same assignment.  The constructor trusts its arguments;
    :meth:`from_states` builds a block from :class:`PlanState` objects.
    """

    __slots__ = ("assign", "keys")

    def __init__(self, assign: np.ndarray, keys: list[bytes] | None = None):
        assign = np.ascontiguousarray(assign, dtype=np.int16)
        if assign.ndim != 2:
            raise SolverError(f"a state block is 2-D, got shape {assign.shape}")
        assign.setflags(write=False)
        self.assign = assign
        self.keys = row_keys(assign) if keys is None else keys

    @classmethod
    def _of(cls, assign, keys) -> "StateBlock":
        """A block of parts already in block form (no conversion, no checks)."""
        block = object.__new__(cls)
        assign.setflags(write=False)
        block.assign, block.keys = assign, keys
        return block

    @classmethod
    def from_states(cls, states: Iterable[PlanState]) -> "StateBlock":
        """The block of ``states``, in order."""
        states = list(states)
        if not states:
            return cls(np.empty((0, 0), dtype=np.int16))
        sizes = {len(st) for st in states}
        if len(sizes) > 1:
            raise SolverError(f"states of one block differ in length: {sorted(sizes)}")
        return cls(np.stack([st.assignment for st in states]), [st.key for st in states])

    def __len__(self) -> int:
        return len(self.keys)

    def __reduce__(self):
        # The keys are the assignment's bytes: a pickled block ships them once.
        return (StateBlock, (self.assign,))

    @property
    def num_tasks(self) -> int:
        return self.assign.shape[1]

    def take(self, rows: Sequence[int] | np.ndarray) -> "StateBlock":
        """The block of ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        keys = self.keys
        return StateBlock._of(self.assign[rows], [keys[i] for i in rows.tolist()])

    @classmethod
    def concat(cls, blocks: Sequence["StateBlock"]) -> "StateBlock":
        """The rows of ``blocks``, one after another."""
        blocks = [b for b in blocks if len(b)]
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            return cls(np.empty((0, 0), dtype=np.int16))
        return cls._of(
            np.concatenate([b.assign for b in blocks]), [key for b in blocks for key in b.keys]
        )

    def state(self, row: int) -> PlanState:
        """Row ``row`` as a :class:`PlanState`."""
        return PlanState(self.assign[row])


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
