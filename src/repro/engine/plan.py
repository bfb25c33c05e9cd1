"""Provisioning plans and deadline presets."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.common.errors import ValidationError
from repro.cloud.instance_types import Catalog
from repro.solver.levels import workflow_layout
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

__all__ = ["ProvisioningPlan", "DeadlinePresets", "deadline_presets"]


@dataclass(frozen=True)
class ProvisioningPlan:
    """The engine's output: an instance type for every task.

    ``expected_cost`` is the paper's Eq. 1 objective (fractional-hour,
    mean-time cost); ``probability`` the Monte Carlo estimate of
    P(makespan <= deadline); both were computed by the solver at
    optimization time.  Execute the plan with
    :meth:`repro.cloud.CloudSimulator.execute` to get *measured* cost
    and makespan.
    """

    workflow_name: str
    assignment: Mapping[str, str]
    expected_cost: float
    probability: float
    feasible: bool
    deadline: float
    deadline_percentile: float
    evaluations: int = 0
    solve_seconds: float = 0.0
    backend: str = "gpu"
    #: The solve watchdog fired: the plan is the best incumbent at the
    #: wall-clock budget, not the converged search result.  ``False``
    #: for every unbounded (or in-budget) solve.
    timed_out: bool = False

    def __post_init__(self):
        object.__setattr__(self, "assignment", dict(self.assignment))

    def type_counts(self) -> dict[str, int]:
        """How many tasks landed on each instance type."""
        counts: dict[str, int] = {}
        for t in self.assignment.values():
            counts[t] = counts.get(t, 0) + 1
        return dict(sorted(counts.items()))

    def overhead_ms_per_task(self) -> float:
        """Optimization overhead per task -- the paper's 4.3-63.17 ms/task metric."""
        if not self.assignment:
            return 0.0
        return self.solve_seconds * 1000.0 / len(self.assignment)

    def decision_dict(self) -> dict:
        """The deterministic decision content of the plan.

        Everything the optimizer *decided* (assignment, cost,
        probability, feasibility, evaluations) but not how long the
        solve took: ``solve_seconds`` is host-speed metadata, and the
        parallel runtime's determinism contract promises byte-identical
        decision dicts for any worker count.  ``timed_out`` is excluded
        for the same reason -- whether a wall-clock watchdog fired is a
        property of the host's speed, not of the decision sequence.
        """
        data = asdict(self)
        data.pop("solve_seconds")
        data.pop("timed_out")
        return data


@dataclass(frozen=True)
class DeadlinePresets:
    """The paper's deadline parameterization (Section 6.1).

    ``dmin``/``dmax`` are the expected critical-path times with every
    task on the fastest / cheapest instance type; the experiments use

    * tight  = 1.5 x Dmin
    * medium = (Dmin + Dmax) / 2      (the default)
    * loose  = 0.75 x Dmax

    The paper's formulas assume Dmin << Dmax (CPU-bound workflows where
    type speed dominates).  On I/O-bound workflows Dmin/Dmax can exceed
    1/2 and the formulas invert (1.5*Dmin > 0.75*Dmax); in that case we
    fall back to interpolating the [Dmin, Dmax] range at 15%/50%/85% so
    tight < medium < loose always holds.
    """

    dmin: float
    dmax: float

    def _paper_formulas_ordered(self) -> bool:
        return 1.5 * self.dmin < (self.dmin + self.dmax) / 2.0 < 0.75 * self.dmax

    def _interp(self, frac: float) -> float:
        return self.dmin + frac * (self.dmax - self.dmin)

    @property
    def tight(self) -> float:
        if self._paper_formulas_ordered():
            return 1.5 * self.dmin
        return self._interp(0.15)

    @property
    def medium(self) -> float:
        return (self.dmin + self.dmax) / 2.0

    @property
    def loose(self) -> float:
        if self._paper_formulas_ordered():
            return 0.75 * self.dmax
        return self._interp(0.85)

    def get(self, name: str) -> float:
        try:
            return {"tight": self.tight, "medium": self.medium, "loose": self.loose}[name]
        except KeyError:
            raise ValidationError(
                f"unknown deadline preset {name!r}; choose tight/medium/loose"
            ) from None


def deadline_presets(
    workflow: Workflow,
    catalog: Catalog,
    runtime_model: RuntimeModel | None = None,
) -> DeadlinePresets:
    """Compute Dmin/Dmax for a workflow on a catalog.

    The two mean-time critical-path lengths (every task on the fastest /
    on the cheapest type) come out of one level-parallel forward pass
    over the model's mean-matrix rows -- the same ``max`` and the same
    one add per task as :func:`~repro.workflow.critical_path.static_makespan`.
    """
    model = runtime_model or RuntimeModel(catalog)
    if not len(workflow):
        return DeadlinePresets(dmin=0.0, dmax=0.0)
    rows = [catalog.index_of(catalog.fastest().name), catalog.index_of(catalog.cheapest().name)]
    _, levels = workflow_layout(workflow)
    lanes = model.mean_matrix(workflow)[rows].T[levels.order]
    dmin, dmax = levels.makespan(lanes).tolist()
    if dmin > dmax:  # catalog where the "fastest" type loses on I/O-bound work
        dmin, dmax = dmax, dmin
    return DeadlinePresets(dmin=dmin, dmax=dmax)
