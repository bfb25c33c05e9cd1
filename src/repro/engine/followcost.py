"""Use case 3: follow-the-cost runtime migration (Sections 3.3, 6.3.3).

Multiple workflows run across cloud regions with different price lists
(the paper uses EC2 US East vs Singapore, a ~33% gap on m1.small).
Periodically, a runtime optimizer may migrate a workflow's remaining
tasks to another region, paying the inter-region transfer cost (Eq. 9)
and transfer time (Eq. 10), to minimize the total monetary cost while
keeping every workflow within its (static, Eq.-10) deadline.

The driver simulates the fleet task-by-task with dynamic cloud
performance.  At every re-optimization period the *deco* policy
re-decides placement from current runtime state (a deterministic WLog
optimization -- the paper's "state is an array of integers, one region
id per workflow") and re-plans the remaining tasks' instance types with
one probabilistic :meth:`Deco.schedule` solve; the *heuristic* baseline
fixes an offline plan from price differences and only adjusts when
monitored task times deviate from the estimate by more than a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import RngService
from repro.common.units import SECONDS_PER_HOUR
from repro.cloud.instance_types import Catalog
from repro.cloud.network import NetworkModel
from repro.cloud.pricing import PricingModel
from repro.engine.deco import Deco
from repro.workflow.dag import Workflow

__all__ = ["WorkflowDeployment", "FollowCostResult", "FollowCostDriver"]

#: Modeled optimizer latency, charged to the workflow's clock (and to its
#: instance bill) on every runtime re-optimization.  The paper measures
#: Deco's GPU optimization at milliseconds per task, while the offline
#: heuristics it compares against "take a long time, which cannot catch
#: up with the workflow executions" -- the source of the threshold
#: effect in Fig. 10b.
DECO_REOPT_SECONDS_PER_TASK = 0.005
HEURISTIC_REOPT_SECONDS_PER_TASK = 0.5


@dataclass
class WorkflowDeployment:
    """One workflow in the fleet.

    ``assignment`` maps task id -> instance type name (from a prior
    scheduling optimization); ``region`` is where it currently runs.
    """

    workflow: Workflow
    assignment: dict[str, str]
    region: str
    deadline: float

    def __post_init__(self):
        missing = [t for t in self.workflow.task_ids if t not in self.assignment]
        if missing:
            raise ValidationError(f"deployment missing assignment for {missing[:3]}")
        if self.deadline <= 0:
            raise ValidationError("deadline must be > 0")


@dataclass(frozen=True)
class FollowCostResult:
    """Fleet-level outcome of one follow-the-cost run."""

    policy: str
    exec_cost: float
    migration_cost: float
    num_migrations: int
    makespans: tuple[float, ...]
    deadlines_met: int
    reoptimizations: int

    @property
    def total_cost(self) -> float:
        return self.exec_cost + self.migration_cost


@dataclass
class _RunState:
    """Mutable per-workflow execution progress."""

    deployment: WorkflowDeployment
    region: str
    assignment: dict[str, str] = field(default_factory=dict)  # current (adaptive) types
    next_index: int = 0              # next task (topological order) to run
    clock: float = 0.0               # this workflow's elapsed time
    exec_cost: float = 0.0
    migration_cost: float = 0.0
    migrations: int = 0
    reopt_seconds: float = 0.0
    last_estimate_error: float = 0.0

    def __post_init__(self):
        if not self.assignment:
            self.assignment = dict(self.deployment.assignment)

    @property
    def done(self) -> bool:
        return self.next_index >= len(self.deployment.workflow)


class FollowCostDriver:
    """Simulates the fleet and applies a migration policy.

    ``deco`` is the engine the *deco* policy re-plans with; the fleet's
    catalog and runtime model are its.
    """

    def __init__(self, deco: Deco, seed: int = 0, period: float = 1800.0):
        if period <= 0:
            raise ValidationError(f"period must be > 0, got {period}")
        self.deco = deco
        self.catalog = deco.catalog
        self.period = period
        self.rngs = RngService(seed)
        self.model = deco.runtime_model
        self.pricing = PricingModel(self.catalog)
        self.network = NetworkModel(self.catalog)
        # Region -> the engine whose catalog prices plans there.
        self._engines = {self.catalog.default_region: deco}

    # ------------------------------------------------------------------

    def run(
        self,
        deployments: list[WorkflowDeployment],
        policy: str = "deco",
        threshold: float = 0.5,
    ) -> FollowCostResult:
        """Execute the fleet under the given migration policy.

        ``policy="deco"`` re-optimizes every period from runtime state;
        ``policy="heuristic"`` uses the offline plan + threshold-
        triggered adjustment (the paper's comparison baseline);
        ``policy="static"`` never migrates.
        """
        if policy not in ("deco", "heuristic", "static"):
            raise ValidationError(f"unknown policy {policy!r}")
        if not 0 < threshold <= 10:
            raise ValidationError(f"threshold must be in (0, 10], got {threshold}")

        states = [_RunState(deployment=d, region=d.region) for d in deployments]
        # One stream per policy; its name fixes the draws Fig. 10 records.
        rng = self.rngs.fresh(f"followcost/{policy}/0")
        reopts = 0

        if policy == "heuristic":
            # Offline stage: migrate each workflow to the cheaper region
            # up front when the projected saving beats the transfer cost.
            for st in states:
                target = self._offline_choice(st)
                if target != st.region:
                    self._migrate(st, target, rng)
        elif policy == "deco":
            # Deco also optimizes at submission time (its optimization is
            # cheap enough to run before launch).
            for st in states:
                self._deco_reoptimize(st, rng, charge=False)

        horizon = max(d.deadline for d in deployments) * 4
        clock = 0.0
        while any(not st.done for st in states) and clock < horizon:
            clock += self.period
            for st in states:
                self._advance_until(st, clock, rng)
            if all(st.done for st in states):
                break
            reopts += 1
            if policy == "deco":
                for st in states:
                    if not st.done:
                        self._deco_reoptimize(st, rng, charge=True)
            elif policy == "heuristic":
                for st in states:
                    if st.done or st.last_estimate_error <= threshold:
                        continue
                    self._charge_reopt(st, HEURISTIC_REOPT_SECONDS_PER_TASK)
                    target = self._offline_choice(st)
                    if target != st.region:
                        self._migrate(st, target, rng)
                    st.last_estimate_error = 0.0

        return FollowCostResult(
            policy=policy,
            exec_cost=float(sum(st.exec_cost for st in states)),
            migration_cost=float(sum(st.migration_cost for st in states)),
            num_migrations=int(sum(st.migrations for st in states)),
            makespans=tuple(st.clock for st in states),
            deadlines_met=sum(1 for st in states if st.clock <= st.deployment.deadline),
            reoptimizations=reopts,
        )

    # Execution --------------------------------------------------------------

    def _advance_until(self, st: _RunState, until: float, rng: np.random.Generator) -> None:
        """Run tasks (topological order) until the fleet clock catches up."""
        wf = st.deployment.workflow
        while not st.done and st.clock < until:
            tid = wf.task_ids[st.next_index]
            type_name = st.assignment[tid]
            duration = float(self.model.sample(wf.task(tid), type_name, rng))
            estimate = self.model.mean(wf.task(tid), type_name)
            st.last_estimate_error = max(
                st.last_estimate_error, abs(duration - estimate) / max(estimate, 1e-9)
            )
            st.clock += duration
            st.exec_cost += (
                duration / SECONDS_PER_HOUR * self.pricing.unit_price(type_name, st.region)
            )
            st.next_index += 1

    def _migrate(self, st: _RunState, target: str, rng: np.random.Generator) -> None:
        data = self._remaining_data(st)
        st.migration_cost += self.pricing.transfer_cost(data, st.region, target)
        bandwidth = self.network.sample_cross_region(st.region, target, rng)
        st.clock += data / bandwidth
        st.region = target
        st.migrations += 1

    def _charge_reopt(self, st: _RunState, seconds_per_task: float) -> None:
        """Model optimizer latency: the workflow (and its instance) waits."""
        remaining = len(st.deployment.workflow) - st.next_index
        pause = seconds_per_task * remaining
        st.reopt_seconds += pause
        st.clock += pause
        if not st.done:
            tid = st.deployment.workflow.task_ids[st.next_index]
            price = self.pricing.unit_price(st.assignment[tid], st.region)
            st.exec_cost += pause / SECONDS_PER_HOUR * price

    def _deco_reoptimize(self, st: _RunState, rng: np.random.Generator, charge: bool) -> None:
        """Deco's runtime step: re-pick the region, then re-plan the rest.

        Tasks run serially, so what remains is the chain of pending
        tasks, due in the remaining slack.  One :meth:`Deco.schedule`
        call on the region's engine re-plans its instance types (the
        paper's "when a task finishes earlier than its scheduled time,
        Deco chooses more cost-effective and usually cheaper instance
        types for its child tasks"), and its plan is applied as returned:
        the cheapest one that meets the deadline at the 96th percentile,
        else the most probable one.  With no slack left the workflow
        keeps its types.
        """
        if charge:
            self._charge_reopt(st, DECO_REOPT_SECONDS_PER_TASK)
        target = self._best_region(st)
        if target != st.region:
            self._migrate(st, target, rng)
        slack = st.deployment.deadline - st.clock
        if st.done or slack <= 0:
            return
        plan = self._engine(st.region).schedule(self._residual_chain(st), slack)
        st.assignment.update(plan.assignment)

    def _engine(self, region: str) -> Deco:
        """The engine pricing plans in ``region``, built once on first use."""
        engine = self._engines.get(region)
        if engine is None:
            catalog = Catalog(
                self.catalog,
                map(self.catalog.region, self.catalog.region_names),
                default_region=region,
            )
            engine = Deco.from_spec({**self.deco.spec(), "catalog": catalog})
            self._engines[region] = engine
        return engine

    @staticmethod
    def _residual_chain(st: _RunState) -> Workflow:
        """The pending tasks, in the order the driver will run them."""
        wf = st.deployment.workflow
        pending = wf.task_ids[st.next_index :]
        return Workflow(
            f"{wf.name}[{st.next_index}:]", map(wf.task, pending), zip(pending, pending[1:])
        )

    # Decision logic ------------------------------------------------------------

    def _remaining_work(self, st: _RunState) -> float:
        """Expected remaining execution seconds (current assignment)."""
        wf = st.deployment.workflow
        return sum(
            self.model.mean(wf.task(tid), st.assignment[tid])
            for tid in wf.task_ids[st.next_index :]
        )

    def _remaining_data(self, st: _RunState) -> float:
        """Bytes that must move with the workflow: the *frontier* data.

        Only intermediate data crosses regions -- outputs of completed
        tasks that pending tasks still consume (the paper's "necessary
        data for executing the task").  External inputs live in the
        object store and are fetched from either region, and data a
        pending task will produce is produced at the destination.
        """
        wf = st.deployment.workflow
        done = set(wf.task_ids[: st.next_index])
        pending = set(wf.task_ids[st.next_index :])
        total = 0.0
        for parent, child in wf.edges():
            if parent in done and child in pending:
                total += wf.transfer_bytes(parent, child)
        return float(total)

    def _remaining_price_rate(self, st: _RunState, region: str) -> float:
        """Expected remaining cost per Eq. 8 if placed in ``region``."""
        wf = st.deployment.workflow
        return sum(
            self.model.mean(wf.task(tid), st.assignment[tid])
            / SECONDS_PER_HOUR
            * self.pricing.unit_price(st.assignment[tid], region)
            for tid in wf.task_ids[st.next_index :]
        )

    def _best_region(self, st: _RunState) -> str:
        """Deco's runtime choice: argmin exec+migration cost, deadline-safe."""
        best_region, best_cost = st.region, self._remaining_price_rate(st, st.region)
        remaining_time = self._remaining_work(st)
        slack = st.deployment.deadline - st.clock - remaining_time
        data = self._remaining_data(st)
        for region in self.catalog.region_names:
            if region == st.region:
                continue
            transfer_time = data / self.network.mean_cross_region_bandwidth(st.region, region)
            if transfer_time > slack:
                continue  # Eq. 10: migration would blow the deadline
            cost = self._remaining_price_rate(st, region) + self.pricing.transfer_cost(
                data, st.region, region
            )
            if cost < best_cost - 1e-12:
                best_region, best_cost = region, cost
        return best_region

    # Declarative path ------------------------------------------------------

    def wlog_facts(self, st: _RunState, chosen_region: str | None = None) -> list:
        """Fact base for the follow-the-cost WLog program, one workflow.

        Per region ``R``: ``wexeccost(w, R, C)`` (Eq. 8 over remaining
        tasks), ``wmigcost(w, R, C)`` (Eq. 9 for the frontier data),
        ``wruntime(w, R, T)`` (remaining time incl. migration transfer,
        Eq. 10).  ``wregion(w, R, 1|0)`` carries the candidate decision.
        """
        from repro.wlog.terms import Atom, Num, Rule, Struct

        def ratom(name: str) -> Atom:
            return Atom(name.replace("-", "_"))

        w = Atom("w0")
        data = self._remaining_data(st)
        rules = [Rule(Struct("workflow", (w,))), Rule(Struct("worigin", (w, ratom(st.region))))]
        for region in self.catalog.region_names:
            rules.append(Rule(Struct("region", (ratom(region),))))
            exec_cost = self._remaining_price_rate(st, region)
            if region == st.region:
                mig_cost, transfer = 0.0, 0.0
            else:
                mig_cost = self.pricing.transfer_cost(data, st.region, region)
                transfer = data / self.network.mean_cross_region_bandwidth(st.region, region)
            rules.append(Rule(Struct("wexeccost", (w, ratom(region), Num(exec_cost)))))
            rules.append(Rule(Struct("wmigcost", (w, ratom(region), Num(mig_cost)))))
            rules.append(
                Rule(
                    Struct(
                        "wruntime",
                        (w, ratom(region), Num(self._remaining_work(st) + transfer)),
                    )
                )
            )
            con = 1.0 if region == chosen_region else 0.0
            rules.append(Rule(Struct("wregion", (w, ratom(region), Num(con)))))
        return rules

    def wlog_choose_region(self, st: _RunState) -> str:
        """Decide this workflow's region by interpreting the WLog program.

        Enumerates the (per-workflow independent) region choices,
        evaluates each through ``followcost_program`` with deterministic
        semantics, and returns the cheapest deadline-safe placement --
        the reference semantics for :meth:`_best_region`, which computes
        the same argmin directly (agreement asserted in tests).
        """
        from repro.wlog.engine import Database, Engine
        from repro.wlog.library import followcost_program
        from repro.wlog.program import WLogProgram
        from repro.wlog.terms import to_python

        remaining_deadline = max(st.deployment.deadline - st.clock, 1e-9)
        program = WLogProgram.from_source(followcost_program(remaining_deadline))
        best_region, best_cost = st.region, float("inf")
        for region in self.catalog.region_names:
            db = Database(program.rules)
            db.extend(self.wlog_facts(st, chosen_region=region))
            engine = Engine(db)
            if not engine.ask("ontime"):
                continue
            cost = float(to_python(engine.first("totalcost(Ct)")["Ct"]))
            if region == st.region:
                stay_bias = 1e-12  # ties keep the workflow where it is
                if cost <= best_cost + stay_bias:
                    best_region, best_cost = region, cost
            elif cost < best_cost - 1e-12:
                best_region, best_cost = region, cost
        return best_region

    def _offline_choice(self, st: _RunState) -> str:
        """Heuristic baseline: price-difference rule, no deadline check."""
        best_region, best_cost = st.region, self._remaining_price_rate(st, st.region)
        data = self._remaining_data(st)
        for region in self.catalog.region_names:
            if region == st.region:
                continue
            cost = self._remaining_price_rate(st, region) + self.pricing.transfer_cost(
                data, st.region, region
            )
            if cost < best_cost - 1e-12:
                best_region, best_cost = region, cost
        return best_region
