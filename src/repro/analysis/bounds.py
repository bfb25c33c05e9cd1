"""Interval/bound inference over the compiled constraint semantics.

The sampler's task-time model is ``t = cpu + data/io_bw + data/net_bw``
with both bandwidths clamped at ``_MIN_BANDWIDTH`` from below
(:mod:`repro.workflow.runtime_model`), so every Monte Carlo
realization of a (type, task) cell lies in the *support interval*

    ``[cpu_seconds,  cpu_seconds + 2 * data_bytes / _MIN_BANDWIDTH]``

regardless of the calibrated bandwidth distributions.  These
sampling-free cell bounds are what makes the pass cheap enough for an
admission-control gate: no histogram materialization, no tensor.

From the cells, :func:`makespan_interval` propagates a critical-path
interval through the task graph (longest path under per-task
min-over-types lower bounds vs. max-over-types upper bounds), and
:func:`cost_interval` sums the per-task best/worst Eq.-1 cost.
Compared against the program's constraints these prove:

* **E401** deadline unreachable -- the makespan lower bound already
  exceeds the deadline: *no* assignment can meet it, under *any*
  bandwidth draw;
* **E402** budget unreachable -- even all-cheapest mean cost exceeds
  the budget;
* **E403** reliability unreachable -- the declared fault model's
  closed-form success probability (assignment-free) misses the
  required level;
* **W401/W402** vacuous deadline/budget -- the *worst*-case bound
  already satisfies the constraint, so it can never bind and the
  search degenerates to unconstrained cost minimization.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.domain import Interval
from repro.analysis.passes import AnalysisContext, AnalysisPass
from repro.wlog.program import ConsSpec
from repro.wlog.terms import to_python
from repro.workflow.runtime_model import _MIN_BANDWIDTH, RuntimeModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.instance_types import Catalog
    from repro.workflow.dag import Workflow

__all__ = [
    "support_bounds",
    "parent_index_tuples",
    "longest_path",
    "makespan_interval",
    "cost_interval",
    "BoundsPass",
]

#: Eq. 1 charges per instance-hour.
_SECONDS_PER_HOUR = 3600.0


def support_bounds(
    workflow: "Workflow",
    catalog: "Catalog",
    model: RuntimeModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` support bounds, each ``(K, N)`` like the sample tensor.

    ``lo[k, i] <= t[k, s, i] <= hi[k, i]`` for every sample ``s`` the
    runtime model can ever draw (bandwidths are clamped at
    ``_MIN_BANDWIDTH`` from below and unbounded above).
    """
    model = model or RuntimeModel(catalog)
    names = catalog.type_names
    n = len(workflow)
    lo = np.empty((len(names), n))
    hi = np.empty((len(names), n))
    for k, type_name in enumerate(names):
        for i, tid in enumerate(workflow.task_ids):
            comp = model.components(workflow.task(tid), type_name)
            lo[k, i] = comp.cpu_seconds
            hi[k, i] = comp.cpu_seconds + (comp.io_bytes + comp.net_bytes) / _MIN_BANDWIDTH
    return lo, hi


def parent_index_tuples(workflow: "Workflow") -> tuple[tuple[int, ...], ...]:
    """Dense parent indices in topological task order (compiler layout)."""
    return tuple(
        tuple(workflow.index_of(p) for p in workflow.parents(tid))
        for tid in workflow.task_ids
    )


def longest_path(parent_indices: tuple[tuple[int, ...], ...], times: np.ndarray) -> float:
    """Longest-path length (makespan) under per-task times."""
    vals = times.tolist()
    n = len(vals)
    if not n:
        return 0.0
    finish = [0.0] * n
    for i, parents in enumerate(parent_indices):
        start = max((finish[p] for p in parents), default=0.0)
        finish[i] = start + vals[i]
    return max(finish)


def makespan_interval(
    parent_indices: tuple[tuple[int, ...], ...],
    lo: np.ndarray,
    hi: np.ndarray,
) -> Interval:
    """Interval bracketing the makespan of *every* assignment and sample.

    Lower bound: the critical path when every task takes its
    min-over-types lower bound (monotonicity of longest path in task
    times makes this <= any realized makespan).  Upper bound: the
    critical path under max-over-types upper bounds -- note this is the
    *parallel* worst case, which is what the deadline constraint
    measures (``maxtime`` is path time, not serialized time).
    """
    return Interval(
        longest_path(parent_indices, lo.min(axis=0)),
        longest_path(parent_indices, hi.max(axis=0)),
    )


def cost_interval(mean_times: np.ndarray, prices: np.ndarray) -> Interval:
    """Interval bracketing the Eq.-1 expected cost of every assignment.

    Cost is deterministic given the assignment (mean times x prices),
    so the interval is exact over the assignment lattice: per task,
    the cheapest vs. costliest type choice.
    """
    cells = mean_times * prices[:, None] / _SECONDS_PER_HOUR
    return Interval(float(cells.min(axis=0).sum()), float(cells.max(axis=0).sum()))


def _requirement_level_bound(spec: ConsSpec) -> tuple[float, float] | None:
    """``(percent_level, bound)`` of a deadline/budget/reliability cons."""
    req = spec.requirement
    if req is None or not hasattr(req, "args") or len(req.args) != 2:
        return None
    try:
        level = float(to_python(req.args[0]))
        bound = float(to_python(req.args[1]))
    except Exception:
        return None
    return level, bound


class BoundsPass(AnalysisPass):
    """Interval inference + the E401-E403 / W401-W402 checks."""

    name = "bounds"
    provides = ("prices", "parent_indices", "makespan_interval", "cost_interval")

    def run(self, ctx: AnalysisContext) -> bool:
        if "makespan_interval" in ctx.facts:
            return False  # already ran (idempotence)
        wf, catalog = ctx.workflow, ctx.catalog
        if wf is None or catalog is None:
            return False  # nothing semantic to bound (e.g. ensemble programs)
        model = ctx.runtime_model or RuntimeModel(catalog)
        lo, hi = support_bounds(wf, catalog, model)
        mean_times = model.mean_matrix(wf)
        prices = np.asarray([catalog.price(name, ctx.region) for name in catalog.type_names])
        parents = parent_index_tuples(wf)
        mk = makespan_interval(parents, lo, hi)
        cost = cost_interval(mean_times, prices)
        ctx.put("prices", prices)
        ctx.put("parent_indices", parents)
        ctx.put("makespan_interval", mk)
        ctx.put("cost_interval", cost)

        for spec in ctx.program.constraints:
            kind = spec.requirement_kind()
            span = ctx.span_of_cons(spec)
            parsed = _requirement_level_bound(spec)
            if parsed is None:
                continue  # malformed requirements are the linter's E203
            _level, bound = parsed
            if kind == "deadline":
                if mk.certainly_above(bound):
                    ctx.emit(
                        "E401",
                        f"deadline provably unreachable: makespan lower bound "
                        f"{mk.lo:.0f}s > deadline {bound:g}s (critical path on the "
                        f"fastest type, best-case bandwidth)",
                        span,
                    )
                elif mk.certainly_at_most(bound):
                    ctx.emit(
                        "W401",
                        f"deadline non-binding: worst-case makespan {mk.hi:.0f}s "
                        f"<= deadline {bound:g}s -- constraint is vacuous",
                        span,
                    )
            elif kind == "budget":
                if cost.certainly_above(bound):
                    ctx.emit(
                        "E402",
                        f"budget provably unreachable: cost lower bound "
                        f"${cost.lo:.4f} > budget ${bound:g} (every task on its "
                        f"cheapest type)",
                        span,
                    )
                elif cost.certainly_at_most(bound):
                    ctx.emit(
                        "W402",
                        f"budget non-binding: worst-case cost ${cost.hi:.4f} "
                        f"<= budget ${bound:g} -- constraint is vacuous",
                        span,
                    )
            elif kind == "reliability":
                self._check_reliability(ctx, spec, span)
        return True

    @staticmethod
    def _check_reliability(ctx: AnalysisContext, spec: ConsSpec, span) -> None:
        """E403: the fault model caps success probability below the level.

        The closed-form plan success probability is assignment-free
        (``(1 - rate**(R+1)) ** num_tasks``), so this is an exact
        feasibility decision, not a bound.
        """
        fault_spec = ctx.program.fault_spec
        wf = ctx.workflow
        parsed = _requirement_level_bound(spec)
        if fault_spec is None or wf is None or parsed is None:
            return  # a missing fault_model is the linter's E211
        level, retries = parsed
        from repro.faults.recovery import RecoveryPolicy

        try:
            policy = RecoveryPolicy(max_retries=int(retries))
            achieved = fault_spec.to_fault_model().plan_success_probability(len(wf), policy)
        except Exception:
            return  # malformed numbers are the linter's E203/E211
        required = level / 100.0
        if achieved < required:
            ctx.emit(
                "E403",
                f"reliability provably unreachable: P(all {len(wf)} tasks succeed) "
                f"= {achieved:.4f} < required {required:.4f} under "
                f"fault_model(rate={fault_spec.rate:g}) with {int(retries)} retries",
                span,
            )
