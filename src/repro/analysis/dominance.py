"""Dominance analysis: structural proofs that transformation ops cannot help.

The :class:`OpMask` names the transformation-op families that the task
graph and the catalog prove vacuous for a whole program: with a single
instance type Promote/Demote have no moves; on a pure chain (every
level width 1) the consolidation family (merge / co-schedule) has
nothing to merge because the schedule is already serialized.

It is not a search input: :func:`compute_op_mask` derives it from a
compiled problem, and no solve consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.solver.backends import CompiledProblem

__all__ = ["OpMask", "compute_op_mask"]

#: The transformation-op vocabulary the mask can disable.
KNOWN_OPS = frozenset({"promote", "demote", "merge", "co_schedule"})


@dataclass(frozen=True)
class OpMask:
    """The op families proved vacuous for a whole program."""

    disabled_ops: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = self.disabled_ops - KNOWN_OPS
        if unknown:
            raise ValueError(f"unknown transformation ops: {sorted(unknown)}")

    def allows(self, op: str) -> bool:
        """Whether ``op`` still has moves on this program."""
        return op not in self.disabled_ops


def _structural_disabled(
    parent_indices: tuple[tuple[int, ...], ...], num_types: int
) -> frozenset[str]:
    """Op families the task-graph/catalog structure proves vacuous."""
    disabled: set[str] = set()
    if num_types <= 1:
        # The type ladder has one rung: every task is simultaneously on
        # the fastest and the cheapest type.
        disabled |= {"promote", "demote"}
    if _max_level_width(parent_indices) <= 1:
        # A pure chain: every level already holds one task, so the
        # consolidation family has nothing to merge or co-schedule.
        disabled |= {"merge", "co_schedule"}
    return frozenset(disabled)


def _max_level_width(parent_indices: tuple[tuple[int, ...], ...]) -> int:
    """Width of the widest topological level (1 for chains)."""
    n = len(parent_indices)
    if not n:
        return 0
    depth = [0] * n
    for i, parents in enumerate(parent_indices):
        depth[i] = 1 + max((depth[p] for p in parents), default=-1)
    width: dict[int, int] = {}
    for d in depth:
        width[d] = width.get(d, 0) + 1
    return max(width.values())


def compute_op_mask(problem: "CompiledProblem") -> OpMask:
    """The structural mask of a compiled problem."""
    return OpMask(_structural_disabled(problem.parent_indices, problem.num_types))
