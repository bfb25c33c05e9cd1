"""The Auto-scaling baseline (Mao & Humphrey, SC'11; paper ref. [25]).

Minimizes monetary cost under a (deterministic) deadline with a chain
of heuristics; we implement the two that carry the algorithm:

1. **Deadline assignment** -- partition the workflow into levels
   (depth classes) and distribute the workflow deadline over levels in
   proportion to each level's minimum achievable duration (its longest
   task on the fastest type).
2. **Instance-type selection** -- for every task pick the *cheapest*
   type whose expected execution time fits the task's level deadline
   (falling back to the fastest type when none fits).

The consolidation/scaling heuristics of the original system map onto
the simulator's instance-reuse policy, which both Deco and this
baseline share, so the comparison isolates plan quality -- as in the
paper.  Note the static nature the paper criticizes: the plan is built
from *mean* times, so under cloud dynamics it tends to miss tight
probabilistic deadlines and to over-spend under loose ones.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.cloud.instance_types import Catalog
from repro.solver.levels import workflow_layout
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

__all__ = ["autoscaling_plan"]


def autoscaling_plan(
    workflow: Workflow,
    catalog: Catalog,
    deadline: float,
    runtime_model: RuntimeModel | None = None,
) -> dict[str, str]:
    """Compute the Auto-scaling instance assignment.

    Returns task id -> instance type name.  ``deadline`` is the
    deterministic deadline; for a probabilistic requirement of p%, the
    paper sets this to the same D the probabilistic constraint uses.

    Everything that does not depend on the deadline -- the ``(K, N)``
    mean matrix and the level index -- is memoised per workflow (on the
    model and in :func:`~repro.solver.levels.workflow_layout`), so a
    call is a handful of array operations; Deco's warm-start ladder
    makes eight per solve.
    """
    if deadline <= 0:
        raise ValidationError(f"deadline must be > 0, got {deadline}")
    model = runtime_model or RuntimeModel(catalog)
    if not len(workflow):
        return {}
    mean = model.mean_matrix(workflow)
    _, levels = workflow_layout(workflow)
    fastest = catalog.index_of(catalog.fastest().name)

    # Step 1: deadline assignment.  A level's floor duration is its
    # longest task on the fastest type (tasks within a level run in
    # parallel); the workflow deadline is split proportionally.
    starts = [lo for lo, _ in levels.level_bounds]
    floor = np.maximum.reduceat(mean[fastest][levels.order], starts).tolist()
    total_floor = sum(floor) or 1.0
    # Degenerate levels (all-zero tasks) still get an even share.
    level_deadline = [deadline * f / total_floor or deadline / len(floor) for f in floor]

    # Step 2: cheapest type fitting each task's level deadline (types
    # are ordered cheapest -> priciest), else the fastest.
    fits = mean <= np.array(level_deadline)[levels.depth]
    choice = np.where(fits.any(axis=0), fits.argmax(axis=0), fastest)
    names = np.array(catalog.type_names, dtype=object)[choice].tolist()
    return dict(zip(workflow.task_ids, names))


def autoscaling_plan_calibrated(
    workflow: Workflow,
    catalog: Catalog,
    deadline: float,
    percentile: float = 96.0,
    runtime_model: RuntimeModel | None = None,
    num_samples: int = 200,
    seed: int = 0,
    shrink: float = 0.92,
    max_rounds: int = 30,
) -> dict[str, str]:
    """Auto-scaling tuned to meet a *probabilistic* deadline requirement.

    The paper's fair-comparison protocol (Section 6.1): when the user
    requires P(makespan <= D) >= p%, the deterministic baseline is given
    the tighter deadline that makes its plan's p-th execution-time
    percentile land within D.  Since Auto-scaling only understands a
    single deterministic deadline, we shrink its input deadline
    geometrically until Monte Carlo evaluation of the resulting plan
    meets the requirement (or the plan saturates at the fastest type).
    This uniform over-provisioning is exactly the slack a
    distribution-aware optimizer can reclaim.
    """
    from repro.solver.backends import CompiledProblem, VectorizedBackend

    model = runtime_model or RuntimeModel(catalog)
    problem = CompiledProblem.compile(
        workflow,
        catalog,
        deadline=deadline,
        percentile=percentile,
        num_samples=num_samples,
        seed=seed,
        runtime_model=model,
    )
    backend = VectorizedBackend()
    fastest = catalog.fastest().name
    target = deadline
    plan = autoscaling_plan(workflow, catalog, target, model)
    for _ in range(max_rounds):
        ev = backend.evaluate(problem, problem.state_from_assignment(plan))
        if ev.feasible or all(t == fastest for t in plan.values()):
            break
        target *= shrink
        plan = autoscaling_plan(workflow, catalog, target, model)
    return plan
