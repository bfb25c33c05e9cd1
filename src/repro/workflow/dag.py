"""The task/DAG workflow model.

A :class:`Workflow` is an immutable-after-build directed acyclic graph of
:class:`Task` objects.  Tasks carry the three resource components the
paper's runtime model needs (CPU reference seconds, input bytes, output
bytes) plus the file-level metadata required to round-trip Pegasus DAX
XML (see :mod:`repro.workflow.dax`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.common.errors import ValidationError

__all__ = ["FileSpec", "Task", "Workflow"]


@dataclass(frozen=True)
class FileSpec:
    """A logical file consumed or produced by a task.

    ``size_bytes`` drives I/O and network transfer times; the paper's
    workflows move files of kilobytes (metadata) to gigabytes (images).
    """

    name: str
    size_bytes: int = 0

    def __post_init__(self):
        if not self.name:
            raise ValidationError("file name must be non-empty")
        if self.size_bytes < 0:
            raise ValidationError(f"file {self.name!r} has negative size")


@dataclass(frozen=True)
class Task:
    """One task (the paper's minimum execution unit).

    Attributes
    ----------
    task_id:
        Unique within its workflow (DAX ``job id``, e.g. ``"ID01"``).
    executable:
        The transformation/program name (DAX ``name``, e.g. ``"mProject"``).
    runtime_ref:
        Reference CPU seconds on a 1.0-speed instance.  The runtime model
        divides this by the instance's CPU speed factor (the paper's
        "scaling factor to scale the CPU time").
    inputs / outputs:
        File metadata; total sizes feed the I/O + network time components.
    """

    task_id: str
    executable: str = "task"
    runtime_ref: float = 1.0
    inputs: tuple[FileSpec, ...] = ()
    outputs: tuple[FileSpec, ...] = ()

    def __post_init__(self):
        if not self.task_id:
            raise ValidationError("task_id must be non-empty")
        if self.runtime_ref < 0:
            raise ValidationError(f"task {self.task_id!r} has negative runtime_ref")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        # Byte totals are read on every runtime-model estimate (hot in
        # warm starts and baselines); precompute once at construction.
        object.__setattr__(self, "_input_bytes", sum(f.size_bytes for f in self.inputs))
        object.__setattr__(self, "_output_bytes", sum(f.size_bytes for f in self.outputs))

    @property
    def input_bytes(self) -> int:
        """Total bytes read by this task."""
        return self._input_bytes

    @property
    def output_bytes(self) -> int:
        """Total bytes written by this task."""
        return self._output_bytes


class Workflow:
    """A DAG of tasks.

    Construction validates uniqueness of task ids, referential integrity
    of edges, and acyclicity; afterwards the object is treated as
    immutable (the solver copies *plans*, never workflows).

    Parameters
    ----------
    name:
        Workflow name (DAX ``name`` attribute), e.g. ``"montage-8"``.
    tasks:
        The task set.
    edges:
        ``(parent_id, child_id)`` pairs; the child consumes (at least
        part of) the parent's output.
    """

    def __init__(
        self,
        name: str,
        tasks: Iterable[Task],
        edges: Iterable[tuple[str, str]] = (),
    ):
        self.name = name
        self._tasks: dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise ValidationError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task

        self._children: dict[str, list[str]] = {tid: [] for tid in self._tasks}
        self._parents: dict[str, list[str]] = {tid: [] for tid in self._tasks}
        seen: set[tuple[str, str]] = set()
        for parent, child in edges:
            if parent not in self._tasks:
                raise ValidationError(f"edge references unknown parent {parent!r}")
            if child not in self._tasks:
                raise ValidationError(f"edge references unknown child {child!r}")
            if parent == child:
                raise ValidationError(f"self-loop on task {parent!r}")
            if (parent, child) in seen:
                continue
            seen.add((parent, child))
            self._children[parent].append(child)
            self._parents[child].append(parent)

        self._topo_order = self._toposort()  # raises on cycles
        self._index = {tid: i for i, tid in enumerate(self._topo_order)}

    # Construction helpers ----------------------------------------------

    def _toposort(self) -> tuple[str, ...]:
        """Kahn's algorithm; deterministic (insertion-ordered) output."""
        indegree = {tid: len(ps) for tid, ps in self._parents.items()}
        frontier = [tid for tid in self._tasks if indegree[tid] == 0]
        order: list[str] = []
        while frontier:
            tid = frontier.pop(0)
            order.append(tid)
            for child in self._children[tid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != len(self._tasks):
            cyclic = sorted(tid for tid, d in indegree.items() if d > 0)
            raise ValidationError(f"workflow {self.name!r} has a cycle involving {cyclic[:5]}")
        return tuple(order)

    # Read API -----------------------------------------------------------

    @property
    def tasks(self) -> Mapping[str, Task]:
        """Task id -> :class:`Task`."""
        return self._tasks

    @property
    def task_ids(self) -> tuple[str, ...]:
        """All task ids in topological order."""
        return self._topo_order

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        """Iterate tasks in topological order."""
        return (self._tasks[tid] for tid in self._topo_order)

    def task(self, task_id: str) -> Task:
        """Look up a task; raises :class:`ValidationError` if unknown."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise ValidationError(f"unknown task {task_id!r} in workflow {self.name!r}") from None

    def children(self, task_id: str) -> tuple[str, ...]:
        """Direct successors of ``task_id``."""
        return tuple(self._children[self.task(task_id).task_id])

    def parents(self, task_id: str) -> tuple[str, ...]:
        """Direct predecessors of ``task_id``."""
        return tuple(self._parents[self.task(task_id).task_id])

    def edges(self) -> Iterator[tuple[str, str]]:
        """All ``(parent, child)`` edges, parents in topological order."""
        for tid in self._topo_order:
            for child in self._children[tid]:
                yield (tid, child)

    def num_edges(self) -> int:
        return sum(len(cs) for cs in self._children.values())

    def roots(self) -> tuple[str, ...]:
        """Entry tasks (no parents), topological order."""
        return tuple(tid for tid in self._topo_order if not self._parents[tid])

    def leaves(self) -> tuple[str, ...]:
        """Exit tasks (no children), topological order."""
        return tuple(tid for tid in self._topo_order if not self._children[tid])

    def index_of(self, task_id: str) -> int:
        """Dense topological index of a task (used by array-based solvers)."""
        return self._index[task_id]

    def transfer_bytes(self, parent_id: str, child_id: str) -> int:
        """Bytes moved along the edge ``parent -> child``.

        Computed as the total size of parent outputs that appear among the
        child's inputs (matched by file name); falls back to the parent's
        full output size when no file metadata links the two (synthetic
        workflows without per-file detail).
        """
        parent = self.task(parent_id)
        child = self.task(child_id)
        if child_id not in self._children[parent_id]:
            raise ValidationError(f"no edge {parent_id!r} -> {child_id!r}")
        child_inputs = {f.name: f.size_bytes for f in child.inputs}
        shared = [f.size_bytes for f in parent.outputs if f.name in child_inputs]
        if shared:
            return sum(shared)
        return parent.output_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workflow({self.name!r}, tasks={len(self)}, edges={self.num_edges()})"
