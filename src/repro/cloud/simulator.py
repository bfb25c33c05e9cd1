"""Discrete-event IaaS cloud simulator.

Reproduces the CloudSim-based simulator of the paper's Section 6.1,
with its three components:

* **Cloud** -- maintains an elastic pool of instances (acquire/release)
  and the calibrated performance distributions;
* **Instance** -- a VM of a catalog type in a region, billed in whole
  hours from acquisition to release;
* **Workflow execution** -- tasks become ready when all parents finish;
  a ready task starts immediately on a free (or newly acquired)
  instance of its assigned type; its duration is drawn from the dynamic
  runtime model (CPU + I/O + network with sampled bandwidths), i.e. the
  per-second performance "conforms to the distributions from
  calibration".

The simulator *executes* provisioning plans; the optimizer never sees
it (it works from the metadata store), which is exactly the separation
the paper evaluates: plans optimized against calibrated distributions,
then measured on the dynamic cloud.

Fault injection is declarative: :class:`~repro.faults.FaultModel` says
what can go wrong (transient attempt failures, instance crash-stop with
exponential MTBF, spot revocations, stragglers) and
:class:`~repro.faults.RecoveryPolicy` what the substrate does about it
(bounded retries with backoff, resubmit-to-fresh, checkpoint/restart).
All fault draws come from the dedicated stream
``faults/<workflow>/<region>/<run_id>`` -- separate from the
performance stream, so enabling faults never perturbs the baseline
performance realization, and both streams are rebuilt from ``(seed,
path)`` in worker processes so runs are bit-identical at any worker
count.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.common.errors import CloudError, ExecutionAborted, ValidationError
from repro.common.rng import RngService
from repro.common.units import billed_hours
from repro.cloud.instance_types import Catalog
from repro.cloud.network import NetworkModel
from repro.cloud.pricing import PricingModel
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.parallel.executor import ShardPool, chunk_evenly, resolve_workers
from repro.workflow.dag import Workflow

if TYPE_CHECKING:  # import cycle guard (cloud <-> workflow), typing only
    from repro.workflow.runtime_model import RuntimeModel

__all__ = ["TaskRecord", "InstanceRecord", "ExecutionResult", "CloudSimulator"]

ON_ABORT_MODES = ("raise", "skip", "record")


@dataclass(frozen=True)
class TaskRecord:
    """Execution trace of one task."""

    task_id: str
    instance_id: int
    instance_type: str
    ready: float
    start: float
    finish: float
    attempts: int = 1

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class InstanceRecord:
    """One acquired instance and its billed life."""

    instance_id: int
    type_name: str
    region: str
    acquired: float
    released: float = 0.0
    tasks: list[str] = field(default_factory=list)
    crashed: bool = False
    revoked: bool = False
    spot: bool = False

    @property
    def billed_hours(self) -> int:
        hours = billed_hours(max(self.released - self.acquired, 0.0))
        if self.revoked:
            # 2014 EC2 rule: the provider-interrupted partial hour is free.
            hours = int((self.released - self.acquired) // 3600.0)
        return hours


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one workflow under one plan.

    ``aborted`` marks a censored outcome: the run exhausted a task's
    retry budget and was abandoned.  ``makespan``/``cost`` then cover
    only the work done up to the abort, and ``task_records`` holds the
    completed tasks only (``run_many(on_abort="record")`` returns these
    alongside successful runs).
    """

    workflow_name: str
    makespan: float
    cost: float
    task_records: tuple[TaskRecord, ...]
    instance_records: tuple[InstanceRecord, ...]
    region: str
    aborted: bool = False

    def meets_deadline(self, deadline: float) -> bool:
        return not self.aborted and self.makespan <= deadline


class CloudSimulator:
    """Event-driven execution of workflows on an elastic instance pool."""

    def __init__(
        self,
        catalog: Catalog,
        rngs: RngService | None = None,
        runtime_model: "RuntimeModel | None" = None,
    ):
        from repro.workflow.runtime_model import RuntimeModel

        self.catalog = catalog
        self.rngs = rngs or RngService(0)
        self.runtime = runtime_model or RuntimeModel(catalog)
        self.pricing = PricingModel(catalog)
        self.network = NetworkModel(catalog)

    # ------------------------------------------------------------------

    def execute(
        self,
        workflow: Workflow,
        assignment: Mapping[str, str],
        region: str | None = None,
        run_id: int = 0,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> ExecutionResult:
        """Execute ``workflow`` with each task on its assigned type.

        Parameters
        ----------
        assignment:
            task id -> instance type name (the provisioning plan).
        region:
            Region to run in (affects prices only).
        run_id:
            Distinguishes repeated runs of the same plan: each run uses
            an independent performance realization of the cloud.
        faults:
            Declarative :class:`FaultModel` (default: no faults).  A
            failed task *attempt* burns its sampled runtime on the
            instance before resubmission -- the Condor retry discipline.
        recovery:
            :class:`RecoveryPolicy` (default: 3 resubmissions per task
            before the run aborts with :class:`ExecutionAborted`, no
            backoff, no checkpointing).
        """
        faults = faults or FaultModel()
        recovery = recovery or RecoveryPolicy()
        region_name = self.catalog.region(region).name
        self._check_assignment(workflow, assignment)
        rng = self.rngs.fresh(f"sim/{workflow.name}/{region_name}/{run_id}")
        # Fault draws live on their own named stream: enabling faults
        # never perturbs the baseline performance realization, and both
        # streams rebuild identically inside worker processes.
        frng = self.rngs.fresh(f"faults/{workflow.name}/{region_name}/{run_id}")

        counter = itertools.count()
        instances: list[InstanceRecord] = []
        free_at: list[float] = []  # per instance: time it becomes idle
        death_at: list[float] = []  # crash/revocation instant (inf = healthy)
        spot_prices: list[np.ndarray | None] = []

        remaining_parents = {tid: len(workflow.parents(tid)) for tid in workflow.task_ids}
        finish_time: dict[str, float] = {}
        records: dict[str, TaskRecord] = {}

        # Event queue of (time, seq, task_id) completion events; ready
        # tasks start immediately (elastic cloud => no queueing).
        events: list[tuple[float, int, str]] = []

        def acquire(type_name: str, now: float) -> int:
            iid = len(instances)
            instances.append(
                InstanceRecord(
                    instance_id=iid,
                    type_name=type_name,
                    region=region_name,
                    acquired=now,
                    spot=faults.spot is not None,
                )
            )
            free_at.append(now)
            crash = faults.crash_time(now, frng)
            if faults.spot is not None:
                proc = faults.spot.process_for(self.catalog, type_name, region_name)
                prices = proc.simulate(faults.spot.horizon_hours, frng)
                spot_prices.append(prices)
                hour = faults.spot.revocation_hour(prices, faults.spot.bid(proc))
                if hour is not None:
                    crash = min(crash, now + hour * 3600.0)
                    # min() below decides which flag fires; mark revoked
                    # lazily at retirement when the revocation wins.
            else:
                spot_prices.append(None)
            death_at.append(crash)
            return iid

        def retire(iid: int, at: float, revoked: bool) -> None:
            rec = instances[iid]
            rec.released = max(at, rec.acquired)
            rec.crashed = not revoked
            rec.revoked = revoked
            free_at[iid] = math.inf  # never picked again

        def is_revocation(iid: int, at: float) -> bool:
            prices = spot_prices[iid]
            if prices is None or faults.spot is None:
                return False
            hour = int((at - instances[iid].acquired) // 3600.0)
            proc = faults.spot.process_for(
                self.catalog, instances[iid].type_name, region_name
            )
            return hour < len(prices) and prices[hour] > faults.spot.bid(proc)

        def pick_instance(tid: str, now: float, avoid: int | None = None) -> int:
            type_name = assignment[tid]
            # Reuse the idle instance that has been idle the shortest
            # time (best fit); otherwise scale out.
            best, best_idle = -1, float("inf")
            for iid, rec in enumerate(instances):
                if rec.type_name != type_name or iid == avoid:
                    continue
                idle = now - free_at[iid]
                if 0.0 <= idle < best_idle:
                    best, best_idle = iid, idle
            if best >= 0:
                return best
            return acquire(type_name, now)

        def abort(tid: str, attempts: int, at: float) -> ExecutionAborted:
            return ExecutionAborted(
                f"task {tid!r} failed {attempts} times (max_retries={recovery.max_retries})",
                task_id=tid,
                attempts=attempts,
                sim_time=at,
                task_records=tuple(records[t] for t in workflow.task_ids if t in records),
            )

        def start_task(tid: str, ready: float) -> None:
            # The baseline performance draw: exactly one per task, from
            # the performance stream, faults on or off.
            base = self.runtime.sample(workflow.task(tid), assignment[tid], rng)
            submit = ready
            failures = 0
            surviving = 0.0  # checkpointed work carried across crashes
            avoid: int | None = None
            while True:
                iid = pick_instance(tid, submit, avoid=avoid)
                start = max(submit, free_at[iid])
                if death_at[iid] <= start:
                    # Died while idle: retire and pick again -- not a
                    # task failure, no retry budget consumed.
                    at = death_at[iid]
                    retire(iid, at, is_revocation(iid, at))
                    continue
                work_total = float(base) * faults.straggler_factor(frng)
                failed = faults.attempt_fails(frng)
                work = max(work_total - surviving, 0.0)
                wall = recovery.attempt_wall_time(work, resuming=surviving > 0.0)
                finish = start + wall
                if death_at[iid] < finish:
                    # Crash-stop / revocation mid-attempt.
                    kill = death_at[iid]
                    retire(iid, kill, is_revocation(iid, kill))
                    failures += 1
                    if failures > recovery.max_retries:
                        raise abort(tid, failures, kill)
                    if recovery.checkpoint is not None:
                        elapsed = kill - start
                        if surviving > 0.0:
                            elapsed -= recovery.checkpoint.restore
                        surviving = min(
                            surviving + recovery.checkpoint.surviving_work(elapsed, work),
                            work_total,
                        )
                    submit = kill + recovery.backoff_delay(failures)
                    avoid = iid if recovery.resubmit_fresh else None
                    continue
                if failed:
                    # Transient failure: the attempt burns its full wall
                    # time on the instance (and is billed), output is
                    # discarded -- checkpoints don't help bad outputs.
                    free_at[iid] = finish
                    failures += 1
                    if failures > recovery.max_retries:
                        raise abort(tid, failures, finish)
                    surviving = 0.0
                    submit = finish + recovery.backoff_delay(failures)
                    avoid = iid if recovery.resubmit_fresh else None
                    # Retry attempts resample their runtime from the
                    # fault stream (the legacy discipline resampled, but
                    # keeping retries off the performance stream keeps
                    # the baseline realization fault-invariant).
                    if faults.task_failure_rate > 0.0:
                        base = self.runtime.sample(workflow.task(tid), assignment[tid], frng)
                    continue
                free_at[iid] = finish
                instances[iid].tasks.append(tid)
                records[tid] = TaskRecord(
                    task_id=tid,
                    instance_id=iid,
                    instance_type=assignment[tid],
                    ready=ready,
                    start=start,
                    finish=finish,
                    attempts=failures + 1,
                )
                heapq.heappush(events, (finish, next(counter), tid))
                return

        def finalize(aborted: bool) -> ExecutionResult:
            makespan = max(finish_time.values(), default=0.0)
            if aborted and records:
                makespan = max(r.finish for r in records.values())
            cost = 0.0
            for iid, rec in enumerate(instances):
                if math.isinf(free_at[iid]):  # retired by crash/revocation
                    pass
                else:
                    rec.released = max(free_at[iid], rec.acquired)
                cost += self._instance_cost(rec, spot_prices[iid], region_name)
            return ExecutionResult(
                workflow_name=workflow.name,
                makespan=makespan,
                cost=cost,
                task_records=tuple(records[tid] for tid in workflow.task_ids if tid in records),
                instance_records=tuple(instances),
                region=region_name,
                aborted=aborted,
            )

        try:
            for tid in workflow.roots():
                start_task(tid, 0.0)

            while events:
                now, _, tid = heapq.heappop(events)
                finish_time[tid] = now
                for child in workflow.children(tid):
                    remaining_parents[child] -= 1
                    if remaining_parents[child] == 0:
                        ready = max(finish_time[p] for p in workflow.parents(child))
                        start_task(child, ready)
        except ExecutionAborted as exc:
            exc.partial_result = finalize(aborted=True)
            raise

        if len(finish_time) != len(workflow):
            raise CloudError(
                f"execution stalled: {len(finish_time)}/{len(workflow)} tasks completed"
            )

        return finalize(aborted=False)

    def _instance_cost(
        self, rec: InstanceRecord, prices: np.ndarray | None, region_name: str
    ) -> float:
        """Billed cost of one instance life.

        On-demand instances pay whole hours at the catalog price.  Spot
        instances pay the drawn hourly market prices; a
        provider-revoked instance's interrupted partial hour is free
        (2014 EC2 rule), a user-released one pays the started hour.
        """
        lifetime = max(rec.released - rec.acquired, 0.0)
        if prices is None:
            return self.pricing.billed_instance_cost(lifetime, rec.type_name, region_name)
        if rec.revoked:
            hours = int(lifetime // 3600.0)
        else:
            hours = billed_hours(lifetime)
        hours = min(hours, len(prices))
        return float(prices[:hours].sum())

    def run_many(
        self,
        workflow: Workflow,
        assignment: Mapping[str, str],
        runs: int,
        region: str | None = None,
        *,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        on_abort: str = "raise",
        workers: int | None = None,
    ) -> list[ExecutionResult]:
        """Execute the same plan ``runs`` times with fresh cloud dynamics.

        This is how the paper produces Fig. 2 (runtime variance of
        Deco-optimized plans over 100 runs) and all "average cost /
        average execution time" numbers.

        Each run ``r`` draws its cloud realization from the stateless
        stream ``(seed, "sim/<workflow>/<region>/<r>")`` (and its fault
        realization from ``faults/...``), so the result list is
        bit-identical for any ``workers`` count: parallelism only
        distributes run ids over processes.  ``workers=None`` defers to
        ``REPRO_WORKERS`` (default serial).  The run ids are split into
        one contiguous chunk per worker, run on a :class:`ShardPool` by
        a simulator rebuilt pristine from this one's parts; with one
        worker the pool runs the chunk in-process, so both counts share
        one route.

        ``on_abort`` decides what an :class:`ExecutionAborted` run does
        to the batch: ``"raise"`` propagates (historical behavior),
        ``"skip"`` drops the run, ``"record"`` keeps its censored
        partial result (``aborted=True``) in the list.
        """
        if runs < 1:
            raise ValidationError(f"runs must be >= 1, got {runs}")
        if on_abort not in ON_ABORT_MODES:
            raise ValidationError(
                f"on_abort must be one of {ON_ABORT_MODES}, got {on_abort!r}"
            )
        nworkers = min(resolve_workers(workers), runs)
        # Deferred: workers.py imports this module (cycle guard).
        from repro.parallel import workers as worker_ctx

        plan = dict(assignment)
        payloads = [
            (workflow, plan, region, chunk, faults, recovery, on_abort)
            for chunk in chunk_evenly(range(runs), nworkers)
        ]
        pool = ShardPool(
            nworkers,
            initializer=worker_ctx.init_simulator_worker,
            initargs=(self.catalog, self.rngs, self.runtime),
        )
        try:
            chunked = pool.run(worker_ctx.run_replication_chunk, payloads)
        finally:
            pool.close()
        return [result for chunk in chunked for result in chunk]

    @staticmethod
    def summarize(results: Sequence[ExecutionResult]) -> dict[str, float]:
        """Mean/percentile summary over repeated runs.

        Censored (aborted) runs contribute to ``num_aborted`` but are
        excluded from the makespan/cost statistics -- their trailing
        work never happened.
        """
        if not results:
            raise ValidationError("no results to summarize")
        completed = [r for r in results if not r.aborted]
        if not completed:
            raise ValidationError("no completed results to summarize (all runs aborted)")
        makespans = np.asarray([r.makespan for r in completed])
        costs = np.asarray([r.cost for r in completed])
        return {
            "mean_makespan": float(makespans.mean()),
            "p5_makespan": float(np.percentile(makespans, 5)),
            "p50_makespan": float(np.percentile(makespans, 50)),
            "p95_makespan": float(np.percentile(makespans, 95)),
            "max_makespan": float(makespans.max()),
            "mean_cost": float(costs.mean()),
            "p95_cost": float(np.percentile(costs, 95)),
            "num_aborted": float(len(results) - len(completed)),
        }

    # ------------------------------------------------------------------

    def _check_assignment(self, workflow: Workflow, assignment: Mapping[str, str]) -> None:
        missing = [tid for tid in workflow.task_ids if tid not in assignment]
        if missing:
            raise ValidationError(f"plan missing assignments for tasks {missing[:5]}")
        for tid in workflow.task_ids:
            self.catalog.type(assignment[tid])  # validates the type name
