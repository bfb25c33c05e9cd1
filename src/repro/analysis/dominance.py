"""Dominance analysis: proofs that transformation ops cannot help.

Two granularities share the :class:`OpMask` product:

* **Program-level** (the :class:`DominancePass`): structural facts
  that disable whole op families -- with a single instance type,
  Promote/Demote have no moves; on a pure chain (every level width 1)
  the consolidation family (merge / co-schedule) is vacuous because
  the schedule is already serialized.

* **State-level** (:func:`futile_offpath_promotes`, consumed by
  :class:`~repro.solver.search.GenericSearch` during child
  generation): an *off-path exploration promote* of task ``i`` is
  **futile** when the longest path through ``i``, computed with
  per-cell **upper** bounds under the parent's assignment (and ``i``
  widened to the promoted type's upper bound), is strictly below the
  makespan **lower** bound (the longest path under per-cell lower
  bounds).  Then ``i`` is critical in *no* realization, so the
  child's makespan samples -- and with them its deadline
  probability, feasibility flag and mean makespan -- are bitwise
  identical to the parent's: paths avoiding ``i`` are unchanged and
  attain the max in every sample.  The only thing the promote *can*
  change is the (deterministic, Eq.-1) cost, which the search
  recomputes exactly.  The op thus provably cannot help the one
  purpose of an exploration promote (finding realizations where the
  off-mean-path task turns critical), and the search settles the
  child with the parent's exact evaluation instead of paying full
  makespan propagation for it.  The flagged child still consumes
  evaluation budget, enters the visited set, and passes the analytic
  and prefix screening tiers like any other candidate -- only the
  final full-MC evaluation is replaced -- so the search trajectory is
  provably unchanged; plan identity with ``op_mask=None`` is asserted
  by ``tests/analysis/test_dominance.py``.

The per-cell bounds come from the sample tensor when a compiled
problem is at hand (:func:`compute_op_mask` -- tight, what the solver
uses) or from the sampling-free support bounds
(:func:`op_mask_from_bounds` -- what the program-level pass uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.passes import AnalysisContext, AnalysisPass

if TYPE_CHECKING:  # pragma: no cover
    from repro.solver.backends import CompiledProblem
    from repro.solver.levels import LevelSchedule

__all__ = [
    "OpMask",
    "compute_op_mask",
    "op_mask_from_bounds",
    "futile_offpath_promotes",
    "DominancePass",
]

#: The transformation-op vocabulary the mask can disable.
KNOWN_OPS = frozenset({"promote", "demote", "merge", "co_schedule"})


@dataclass(frozen=True)
class OpMask:
    """Per-program dominance facts for the transformation search.

    ``lo``/``hi`` are ``(K, N)`` per-(type, task) bounds bracketing
    every realization the evaluator can produce;
    ``promote_cost_up[t, i]`` says promoting task ``i`` from type ``t``
    never lowers Eq.-1 cost (row ``K-1`` is ``False``: no promote
    exists there) -- informational for consolidation-style passes; the
    futility predicate does not need it because the settled child's
    cost is recomputed exactly either way.  ``disabled_ops`` are op
    families proved vacuous
    for the whole program.  ``source`` records which bound family
    backs the mask (``"tensor"`` = sample min/max, ``"support"`` =
    sampling-free support bounds); ``sample_token`` ties a
    tensor-backed mask to the problem generation it was computed from.
    """

    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    promote_cost_up: np.ndarray = field(repr=False)
    disabled_ops: frozenset[str] = frozenset()
    source: str = "tensor"
    sample_token: int | None = None

    def __post_init__(self) -> None:
        unknown = self.disabled_ops - KNOWN_OPS
        if unknown:
            raise ValueError(f"unknown transformation ops: {sorted(unknown)}")

    def allows(self, op: str) -> bool:
        """Whether the search may still generate ``op`` children."""
        return op not in self.disabled_ops

    @property
    def num_types(self) -> int:
        return int(self.lo.shape[0])

    @property
    def num_tasks(self) -> int:
        return int(self.lo.shape[1])


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


def _promote_cost_up(mean_times: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """(K, N) bools: promoting from row t never lowers Eq.-1 cost."""
    cells = mean_times * prices[:, None]
    up = np.zeros(cells.shape, dtype=bool)
    if cells.shape[0] > 1:
        up[:-1] = cells[1:] >= cells[:-1]
    return up


def op_mask_from_bounds(
    lo: np.ndarray,
    hi: np.ndarray,
    mean_times: np.ndarray,
    prices: np.ndarray,
    parent_indices: tuple[tuple[int, ...], ...],
    source: str = "support",
    sample_token: int | None = None,
) -> OpMask:
    """Assemble an :class:`OpMask` from per-cell bounds."""
    return OpMask(
        lo=np.asarray(lo, dtype=float),
        hi=np.asarray(hi, dtype=float),
        promote_cost_up=_promote_cost_up(np.asarray(mean_times), np.asarray(prices)),
        disabled_ops=_structural_disabled(parent_indices, int(lo.shape[0])),
        source=source,
        sample_token=sample_token,
    )


def compute_op_mask(problem: "CompiledProblem") -> OpMask:
    """The tensor-backed mask for a compiled problem.

    Per-cell bounds are the sample min/max over the problem's own
    Monte Carlo tensor -- by construction they bracket exactly the
    realizations the evaluator will ever see, so they are the tightest
    sound bounds available (and much tighter than the support bounds).
    """
    return op_mask_from_bounds(
        lo=problem.tensor.min(axis=1),
        hi=problem.tensor.max(axis=1),
        mean_times=problem.mean_times,
        prices=problem.prices,
        parent_indices=problem.parent_indices,
        source="tensor",
        sample_token=getattr(problem, "sample_token", None),
    )


def futile_offpath_promotes(
    mask: OpMask,
    parent_indices: tuple[tuple[int, ...], ...],
    assignment: np.ndarray,
    levels: "LevelSchedule | None" = None,
) -> np.ndarray:
    """Bools per task: promoting task ``i`` cannot change any makespan sample.

    True when task ``i`` is provably never critical under the widened
    upper bound (see the module docstring); the caller applies it to
    off-critical-path exploration promotes only -- a critical-path
    promote is by construction aimed at a task that *is* critical.

    ``assignment`` is one ``(N,)`` state or a ``(B, N)`` batch (the
    result has the same shape).  The lo/hi forward bounds and the hi
    tail bound are level passes over the whole batch; ``levels`` is the
    DAG's level schedule when the caller has one (the search passes the
    compiled problem's), otherwise it is built from ``parent_indices``.
    """
    if levels is None:
        from repro.solver.levels import LevelSchedule

        levels = LevelSchedule.from_parent_indices(parent_indices)
    a = np.atleast_2d(np.asarray(assignment))
    b, n = a.shape
    if not n:
        return np.zeros(np.shape(assignment), dtype=bool)
    idx = np.arange(n)
    lo_now = mask.lo[a, idx]
    hi_now = mask.hi[a, idx]

    # Longest paths under lo / hi cell bounds, lo and hi lanes side by
    # side in one forward pass, then the hi tail after each task.
    lanes = np.concatenate([lo_now, hi_now]).T[levels.order]
    finish = levels.propagate_permuted(lanes)[levels.rank]
    tail_hi = levels.tail_permuted(lanes[:, b:])[levels.rank].T
    fin_hi = finish[:, b:].T
    lb_makespan = finish[:, :b].max(axis=0)[:, None]
    # Widen task i's own cell to the promoted type's upper bound: the
    # path-through-i bound must cover the child's assignment too.
    next_type = np.minimum(a + 1, mask.num_types - 1)
    hi_widened = np.maximum(hi_now, mask.hi[next_type, idx])
    through_hi = fin_hi - hi_now + hi_widened + tail_hi
    return (through_hi < lb_makespan).reshape(np.shape(assignment))


class DominancePass(AnalysisPass):
    """Publish the program-level :class:`OpMask` (support-bound backed)."""

    name = "dominance"
    requires = ("support_lo", "support_hi", "mean_times", "prices", "parent_indices")
    provides = ("op_mask",)

    def run(self, ctx: AnalysisContext) -> bool:
        if "op_mask" in ctx.facts:
            return False
        mask = op_mask_from_bounds(
            lo=ctx.facts["support_lo"],  # type: ignore[arg-type]
            hi=ctx.facts["support_hi"],  # type: ignore[arg-type]
            mean_times=ctx.facts["mean_times"],  # type: ignore[arg-type]
            prices=ctx.facts["prices"],  # type: ignore[arg-type]
            parent_indices=ctx.facts["parent_indices"],  # type: ignore[arg-type]
        )
        ctx.put("op_mask", mask)
        return True
