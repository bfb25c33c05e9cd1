"""The SPSS baseline (Malawski et al., SC'12; paper ref. [24]).

Static Provisioning, Static Scheduling for workflow ensembles: an
offline pass admits workflows in priority order, each planned with a
deterministic (mean-time) scheduling heuristic, as long as the
cumulative cost stays within the ensemble budget and the member's
deadline is met *in expectation*.

Two properties drive the paper's comparison results:

* SPSS plans per workflow with a single heuristic (cheapest uniform
  instance type whose mean critical path fits the deadline) rather
  than per-task type mixing, so each admitted workflow costs more and
  fewer fit the budget;
* feasibility is checked on mean times only (the deterministic notion
  the paper argues against), so under cloud dynamics some admitted
  workflows miss their *probabilistic* deadline and score zero while
  their cost is still spent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.units import SECONDS_PER_HOUR
from repro.cloud.instance_types import Catalog
from repro.workflow.critical_path import static_makespan
from repro.workflow.dag import Workflow
from repro.workflow.ensembles import Ensemble
from repro.workflow.runtime_model import RuntimeModel

__all__ = ["SpssDecision", "spss_decide", "spss_member_plan"]


@dataclass(frozen=True)
class SpssDecision:
    """SPSS's admission outcome for one ensemble."""

    ensemble_name: str
    admitted_priorities: tuple[int, ...]
    plans: dict[int, dict[str, str]]           # priority -> task assignment
    costs: dict[int, float]                    # priority -> expected cost
    total_cost: float
    budget: float

    @property
    def num_admitted(self) -> int:
        return len(self.admitted_priorities)

    def planned_score(self) -> float:
        """Score assuming every admitted workflow completes (Eq. 4)."""
        return float(sum(2.0 ** (-p) for p in self.admitted_priorities))


#: SPSS's planning slack: a plan is admitted when its mean critical path
#: fits within this fraction of the deadline.  The original system plans
#: with ~10% headroom against runtime estimation error; without it every
#: mean-tight plan would fail under cloud dynamics.
SPSS_SLACK = 0.9


def spss_member_plan(
    workflow: Workflow,
    catalog: Catalog,
    deadline: float,
    model: RuntimeModel,
    slack: float = SPSS_SLACK,
) -> tuple[dict[str, str], float] | None:
    """Cheapest uniform-type plan whose mean critical path fits.

    Returns ``(assignment, expected_cost)`` or None when even the
    fastest type cannot meet the deadline in expectation.
    """
    for name in catalog.type_names:  # cheapest first
        times = {t: model.mean(workflow.task(t), name) for t in workflow.task_ids}
        if static_makespan(workflow, times) <= deadline * slack:
            price = catalog.price(name)
            cost = sum(times.values()) / SECONDS_PER_HOUR * price
            return ({tid: name for tid in workflow.task_ids}, cost)
    return None


def spss_decide(
    ensemble: Ensemble,
    catalog: Catalog,
    runtime_model: RuntimeModel | None = None,
) -> SpssDecision:
    """Run SPSS's offline admission over an ensemble."""
    if ensemble.budget == float("inf"):
        raise ValidationError("SPSS needs a finite ensemble budget")
    ensemble.require_deadlines()
    model = runtime_model or RuntimeModel(catalog)
    admitted: list[int] = []
    plans: dict[int, dict[str, str]] = {}
    costs: dict[int, float] = {}
    spent = 0.0
    for member in ensemble.by_priority():
        planned = spss_member_plan(member.workflow, catalog, member.deadline, model)
        if planned is None:
            continue
        assignment, cost = planned
        if spent + cost > ensemble.budget + 1e-12:
            continue
        spent += cost
        admitted.append(member.priority)
        plans[member.priority] = assignment
        costs[member.priority] = cost
    return SpssDecision(
        ensemble_name=ensemble.name,
        admitted_priorities=tuple(admitted),
        plans=plans,
        costs=costs,
        total_cost=spent,
        budget=ensemble.budget,
    )
