"""Correctness checks on the plans a workload returned.

They run after the timed section, once per distinct plan, and their
time is in no timing metric.  An op fails when

* it raised, or (service jobs) did not end ``completed``;
* its assignment does not give every task a catalog instance type;
* ``expected_cost`` is more than 1e-6 (relative) from the benchmark's
  own evaluation of the paper's Eq. 1 -- mean task time x hourly price
  / 3600, summed over the assignment;
* the plan claims feasibility but meets its deadline in fewer than
  ``p - 0.10`` of ``RUNS`` simulated executions;
* the plan claims infeasibility although the all-fastest-type
  assignment meets the deadline in at least ``p`` of the runs, which
  proves that a feasible plan exists.

The simulator streams are fixed (``SIM_SEED``), not drawn from
``--seed``: a plan that meets its deadline in 96.5% of all executions
misses the ``p - 0.10`` rule in about one of 300 draws of 40 runs, and
the workloads must not fail on chance.
"""

from __future__ import annotations

import time

RUNS = 40
SIM_SEED = 11
COST_RTOL = 1e-6
HIT_SLACK = 0.10


def _evenly_spaced(items: list, count: int | None) -> list:
    if count is None or count >= len(items):
        return items
    if count <= 1:
        return items[:1]
    step = (len(items) - 1) / (count - 1)
    return [items[round(i * step)] for i in range(count)]


class PlanChecker:
    def __init__(self, catalog, workflows: dict, sim_plans: int | None):
        from repro.workflow.runtime_model import RuntimeModel

        self.catalog = catalog
        self.workflows = workflows
        self.sim_plans = sim_plans
        self.runtime = RuntimeModel(catalog)
        self._makespans: dict[tuple, list[float]] = {}
        self.sim_runs = 0
        self.sim_seconds = 0.0

    def _simulate(self, wf_key: str, assignment: dict) -> list[float]:
        from repro.cloud import CloudSimulator
        from repro.common.rng import RngService

        key = (wf_key, tuple(sorted(assignment.items())))
        makespans = self._makespans.get(key)
        if makespans is None:
            simulator = CloudSimulator(self.catalog, RngService(SIM_SEED))
            workflow = self.workflows[wf_key]
            t0 = time.perf_counter()
            makespans = [
                simulator.execute(workflow, assignment, run_id=r).makespan
                for r in range(RUNS)
            ]
            self.sim_seconds += time.perf_counter() - t0
            self.sim_runs += RUNS
            self._makespans[key] = makespans
        return makespans

    def _hit_rate(self, wf_key: str, assignment: dict, deadline: float) -> float:
        makespans = self._simulate(wf_key, assignment)
        return sum(m <= deadline for m in makespans) / len(makespans)

    def _static_error(self, record) -> str | None:
        plan = record.plan
        workflow = self.workflows[record.op.workflow]
        if set(plan.assignment) != set(workflow.task_ids):
            return "assignment does not cover every task"
        unknown = set(plan.assignment.values()) - set(self.catalog.type_names)
        if unknown:
            return f"assignment uses types outside the catalog: {sorted(unknown)}"
        eq1 = sum(
            self.runtime.mean(workflow.task(tid), type_name)
            * self.catalog.price(type_name)
            / 3600.0
            for tid, type_name in plan.assignment.items()
        )
        if abs(plan.expected_cost - eq1) > COST_RTOL * abs(eq1):
            return f"expected_cost {plan.expected_cost!r} != Eq.-1 recomputation {eq1!r}"
        return None

    def check(self, records: list) -> dict:
        """Returns failures (op index -> reason) and the simulated hit rates."""
        failures: dict[int, str] = {}
        distinct: dict[tuple, None] = {}
        for index, record in enumerate(records):
            if record.error is not None or record.plan is None:
                failures[index] = record.error or "no plan returned"
                continue
            error = self._static_error(record)
            if error is not None:
                failures[index] = error
                continue
            distinct.setdefault(
                (record.op.workflow, tuple(sorted(record.plan.assignment.items())))
            )
        simulated = set(_evenly_spaced(list(distinct), self.sim_plans))
        hit_rates: list[float] = []
        for index, record in enumerate(records):
            if index in failures:
                continue
            plan = record.plan
            key = (record.op.workflow, tuple(sorted(plan.assignment.items())))
            if key not in simulated:
                continue
            required = plan.deadline_percentile / 100.0
            hit = self._hit_rate(record.op.workflow, plan.assignment, plan.deadline)
            hit_rates.append(hit)
            if plan.feasible and hit < required - HIT_SLACK:
                failures[index] = (
                    f"feasible plan met its deadline in {hit:.3f} of {RUNS} runs, "
                    f"required {required:.2f} - {HIT_SLACK}"
                )
            elif not plan.feasible:
                fastest = self.catalog.fastest().name
                all_fastest = dict.fromkeys(plan.assignment, fastest)
                if self._hit_rate(record.op.workflow, all_fastest, plan.deadline) >= required:
                    failures[index] = (
                        "plan says infeasible but the all-fastest assignment meets the deadline"
                    )
        return {
            "failures": failures,
            "hit_rates": hit_rates,
            "distinct_plans": len(distinct),
            "simulated_plans": len(simulated),
            "sim_runs": self.sim_runs,
            "sim_seconds": self.sim_seconds,
        }
