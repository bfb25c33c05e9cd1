"""The solver's plan-state representation.

A state assigns every task an instance-type index (0 = cheapest in the
default region), exactly the ``configs(Tid, Vid, Con)`` grounding of
the WLog ``var`` directive.  States are immutable and hashable so the
search's visited-set and pruning work on raw bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import SolverError

__all__ = ["PlanState", "StateEval"]


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
