"""The six workflow transformation operations (paper Section 5.3).

From the authors' transformation framework (cited as [46]), reused by
Deco as the state-transition system of its generic search:

* **Promote / Demote** -- move a task to a more / less powerful
  instance type (Fig. 5a-b);
* **Merge** -- put two same-type tasks on the *same instance*,
  serialized, to use up the instance's partial hour;
* **Co-scheduling** -- put multiple same-type tasks on the same
  instance (the parallel/packing variant of Merge);
* **Move** -- delay a task's start to a later time;
* **Split** -- suspend a running task and resume it later.

Operations act on a :class:`ScheduleDraft` -- an instance configuration
plus tentative start times per task.  Nothing in the engine uses this
module: the search edits a :class:`~repro.solver.state.PlanState` one
type rung at a time (Promote/Demote, :mod:`repro.solver.expand`).  It
is the executable reading of the paper's Fig. 5 and its tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.common.errors import ValidationError
from repro.cloud.instance_types import Catalog
from repro.workflow.dag import Workflow

__all__ = ["ScheduleDraft", "OPERATION_NAMES"]

OPERATION_NAMES = ("move", "merge", "promote", "demote", "split", "co_schedule")


@dataclass
class ScheduleDraft:
    """A mutable provisioning draft the transformation operations edit.

    Attributes
    ----------
    type_index:
        task id -> dense catalog type index (0 = cheapest).
    start:
        task id -> tentative start time (seconds); transformation ops
        keep these *consistent with precedence* on a best-effort basis,
        final times come from the simulator.
    group:
        task id -> co-scheduling group key; tasks sharing a key share an
        instance.  Singleton groups are implicit.
    splits:
        task id -> list of (pause, resume) pairs recorded by Split.
    dirty:
        task ids this draft has changed since it was created/copied.
        Every successful operation records exactly the tasks whose draft
        entry it actually rewrote (a Promote that returns False records
        nothing; a Merge records only the tasks whose group key changed).
        :meth:`copy` starts the child with an empty set, so a child's
        ``dirty`` is precisely its diff against the parent -- the
        solver's incremental evaluator re-propagates only those tasks'
        DAG levels (see :class:`~repro.solver.state.PlanState`).
    """

    workflow: Workflow
    catalog: Catalog
    type_index: dict[str, int]
    start: dict[str, float] = field(default_factory=dict)
    group: dict[str, object] = field(default_factory=dict)
    splits: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    dirty: set[str] = field(default_factory=set)

    @classmethod
    def initial(cls, workflow: Workflow, catalog: Catalog, type_index: int = 0) -> "ScheduleDraft":
        """The paper's initial state: every task on the cheapest type."""
        return cls(
            workflow=workflow,
            catalog=catalog,
            type_index={tid: type_index for tid in workflow.task_ids},
        )

    def _check_task(self, task_id: str) -> None:
        if task_id not in self.type_index:
            raise ValidationError(f"unknown task {task_id!r} in schedule draft")

    def copy(self) -> "ScheduleDraft":
        """An independent child draft; its ``dirty`` set starts empty."""
        return ScheduleDraft(
            workflow=self.workflow,
            catalog=self.catalog,
            type_index=dict(self.type_index),
            start=dict(self.start),
            group=dict(self.group),
            splits={k: list(v) for k, v in self.splits.items()},
        )

    # Configuration-changing operations -----------------------------------

    def promote(self, task_id: str) -> bool:
        """Move the task to the next more powerful (pricier) type.

        Returns False (and leaves the draft unchanged) when the task is
        already on the most powerful type.
        """
        self._check_task(task_id)
        idx = self.type_index[task_id]
        if idx + 1 >= len(self.catalog):
            return False
        self.type_index[task_id] = idx + 1
        self.dirty.add(task_id)
        return True

    def demote(self, task_id: str) -> bool:
        """Move the task to the next less powerful (cheaper) type."""
        self._check_task(task_id)
        idx = self.type_index[task_id]
        if idx == 0:
            return False
        self.type_index[task_id] = idx - 1
        self.dirty.add(task_id)
        return True

    def merge(self, first: str, second: str) -> bool:
        """Serialize two same-type tasks onto one instance.

        Only valid when the tasks share an instance type and are not
        ordered ancestor-inside-group in a way that would deadlock --
        here we require the second not to precede the first.
        """
        self._check_task(first)
        self._check_task(second)
        if first == second:
            return False
        if self.type_index[first] != self.type_index[second]:
            return False
        if self._precedes(second, first):
            return False
        key = self.group.get(first, ("merge", first))
        for tid in (first, second):
            if self.group.get(tid) != key:
                self.group[tid] = key
                self.dirty.add(tid)
        return True

    def co_schedule(self, task_ids: tuple[str, ...]) -> bool:
        """Pack several same-type tasks onto one instance."""
        if len(task_ids) < 2:
            return False
        for tid in task_ids:
            self._check_task(tid)
        types = {self.type_index[tid] for tid in task_ids}
        if len(types) != 1:
            return False
        key = ("cosched", task_ids[0])
        for tid in task_ids:
            if self.group.get(tid) != key:
                self.group[tid] = key
                self.dirty.add(tid)
        return True

    # Timeline operations ----------------------------------------------------

    def move(self, task_id: str, delay: float) -> bool:
        """Delay the task's tentative start by ``delay`` seconds."""
        self._check_task(task_id)
        if delay < 0:
            raise ValidationError(f"move delay must be >= 0, got {delay}")
        if delay == 0:
            return True  # no-op: the timeline (and the dirty set) is unchanged
        self.start[task_id] = self.start.get(task_id, 0.0) + delay
        self.dirty.add(task_id)
        return True

    def split(self, task_id: str, pause_at: float, resume_at: float) -> bool:
        """Suspend at ``pause_at`` and resume at ``resume_at``."""
        self._check_task(task_id)
        if resume_at <= pause_at:
            raise ValidationError(f"resume ({resume_at}) must be after pause ({pause_at})")
        self.splits.setdefault(task_id, []).append((pause_at, resume_at))
        self.dirty.add(task_id)
        return True

    # Helpers ------------------------------------------------------------------

    def _precedes(self, a: str, b: str) -> bool:
        """Whether ``a`` is an ancestor of ``b`` in the DAG."""
        frontier = list(self.workflow.children(a))
        seen = set(frontier)
        while frontier:
            cur = frontier.pop()
            if cur == b:
                return True
            for child in self.workflow.children(cur):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False

    def assignment(self) -> dict[str, str]:
        """task id -> instance type *name* (for the simulator)."""
        names = self.catalog.type_names
        return {tid: names[idx] for tid, idx in self.type_index.items()}

    def groups(self) -> dict[str, object] | None:
        """Co-scheduling groups, or None if every task is alone."""
        return dict(self.group) if self.group else None

    def dirty_indices(self) -> tuple[int, ...]:
        """The dirty set as sorted dense task indices.

        This is the shape the solver's incremental evaluator consumes
        (:class:`~repro.solver.state.PlanState` lineage): each index
        names a task whose draft entry changed since :meth:`copy`, so a
        delta propagation needs to revisit only those tasks' levels.
        """
        return tuple(sorted(self.workflow.index_of(tid) for tid in self.dirty))

    def children_by_promote(self) -> Iterator["ScheduleDraft"]:
        """All child drafts reachable by one Promote (paper Fig. 5b).

        Each child's ``dirty`` set holds exactly the promoted task.
        """
        for tid in self.workflow.task_ids:
            child = self.copy()
            if child.promote(tid):
                yield child
