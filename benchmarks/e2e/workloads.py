"""The seven closed-loop, single-client workloads.

One *op* is one plan request: a ``Deco.schedule`` call, a
``Deco.solve_program`` call, or a service job from ``submit()`` to its
terminal state.  Every workload has a fixed op list: its length follows
from ``--seconds`` through the workload's nominal op time, measured at
the commit that added the benchmark on a 2-core host, so that a run
measures about ``--seconds`` of work there and the list is the same on
every run with the same arguments.

Inputs come from *fixed pools* of generator seeds, and ``--seed``
draws the order in which a run visits its pool.  A run always visits
the whole pool a whole number of times, so two seeds time the same
population of requests in another order.  Plan latency changes by a
factor of two between generator seeds of one workflow family (Montage-8:
0.45 s to 0.97 s), so runs that drew their pools from the seed could
not be compared with each other below that noise.  The two sweeps keep
one order for every seed: a warm engine's plan depends on what its
caches hold, so reordering a sweep changes the plans it returns.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

# Engine knobs used everywhere; every feature switch stays at its default.
ENGINE = {"seed": 7, "num_samples": 150, "max_evaluations": 1500}

#: Generator seed of the workflow each warm-up op solves (in no pool).
WARMUP_SEED = 99

SWEEP_DEADLINES = ("tight", "medium", "loose")
SWEEP_PERCENTILES = (90.0, 99.0)

_clock = time.perf_counter


@dataclass
class Op:
    label: str
    workflow: str              # key into the workload's generated inputs
    deadline: str = "medium"
    percentile: float = 96.0
    depends_on: int | None = None   # service-mix: op that must be terminal first


@dataclass
class OpRecord:
    op: Op
    latency_s: float                # as measured on the wall clock
    plan: object | None = None      # ProvisioningPlan
    error: str | None = None
    counters: dict = field(default_factory=dict)   # SearchResult numbers
    job: dict = field(default_factory=dict)        # service-mix: job timings
    t0: float = 0.0                 # perf_counter at the start of the op


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def result_counters(result) -> dict:
    """The integer counters of a ``SearchResult`` (no states, no trace)."""
    if result is None:
        return {}
    return {
        f.name: int(getattr(result, f.name))
        for f in dataclasses.fields(result)
        if f.type in ("int", "bool")
    }


def _tick(speed) -> None:
    if speed is not None:
        speed.tick()


def _cycles(seconds: float, cycle_s: float) -> int:
    return max(1, round(seconds / cycle_s))


class Workload:
    """Base: sequential ops, each timed from call to return."""

    name = ""
    why = ""
    #: How many distinct assignments the correctness pass executes in
    #: the simulator (``None`` = all); 40 runs of a 680-task workflow
    #: take 1.2 s, so the Montage-8 workloads execute two.
    sim_plans: int | None = None

    def __init__(self) -> None:
        from repro.cloud import ec2_catalog

        self.catalog = ec2_catalog()
        self.workflows: dict[str, object] = {}
        self.out_dir = "."  # where temporary files (journals) go

    # -- inputs ---------------------------------------------------------
    def ops(self, seed: int, seconds: float, smoke: bool) -> list[Op]:
        raise NotImplementedError

    #: family name -> generator taking a generator seed
    makers: dict = {}

    def warmup_keys(self) -> list[str]:
        return [f"{next(iter(self.makers))}/s{WARMUP_SEED}"]

    def generate(self, ops: list[Op]) -> None:
        """Build every input the ops and the warm-up name (part of set-up)."""
        keys = dict.fromkeys([op.workflow for op in ops] + self.warmup_keys())
        self.workflows = {}
        for key in keys:
            family, _, seed = key.rpartition("/s")
            self.workflows[key] = self.makers[family](int(seed))

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start engines/pools/services and run one untimed warm-up op."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release whatever :meth:`start` started (idempotent)."""

    def run_op(self, op: Op):
        """Serve one request; returns ``(plan, SearchResult | None)``."""
        raise NotImplementedError

    def run_ops(self, ops: list[Op], speed=None, tracer=None) -> list[OpRecord]:
        """Run the ops in order; ``speed`` ticks before each and after the last."""
        records = []
        _tick(speed)
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            t0 = _clock()
            try:
                plan, result = self.run_op(op)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                plan, result, error = None, None, f"{type(exc).__name__}: {exc}"
            latency = _clock() - t0
            if tracer is not None:
                tracer.op = None
            records.append(OpRecord(op, latency, plan, error, result_counters(result), t0=t0))
            _tick(speed)
        return records

    def layer_stats(self) -> dict:
        """Counters read from the program's public stats surfaces after the ops."""
        return {}

    # -- helpers --------------------------------------------------------
    def _engine(self, **extra):
        from repro.engine.deco import Deco

        return Deco(self.catalog, **ENGINE, **extra)


def _montage(degrees: float, seed: int):
    from repro.workflow import generators

    return generators.montage(degrees=degrees, seed=seed)


def _pool_order(keys: list[str], rng: random.Random) -> list[str]:
    order = list(keys)
    rng.shuffle(order)
    return order


class ColdSchedule(Workload):
    """Fresh engine per op: ``Deco(...)`` then ``schedule(wf, "medium", 96)``."""

    #: family name -> generator seeds
    pool: dict[str, tuple] = {}
    cycle_s = 2.6  # nominal seconds for one pass over the pool

    def ops(self, seed, seconds, smoke):
        rng = random.Random(f"{seed}/{self.name}")
        families = list(self.pool)
        ops: list[Op] = []
        for _ in range(1 if smoke else _cycles(seconds, self.cycle_s)):
            orders = [
                _pool_order([f"{fam}/s{s}" for s in self.pool[fam]], rng)
                for fam in families
            ]
            # Alternate families so that neighbouring ops differ in shape.
            for group in zip(*orders):
                ops.extend(Op(f"{key} medium/96", key) for key in group)
        return ops[:3] if smoke else ops

    def start(self) -> None:
        self.run_op(Op("warm-up", self.warmup_keys()[0]))

    def run_op(self, op):
        deco = self._engine()
        plan = deco.schedule(self.workflows[op.workflow], op.deadline, op.percentile)
        return plan, deco.last_result


class ColdSmallMC(ColdSchedule):
    name = "cold-small-mc"
    why = ("30- and 100-task workflows: nearly every evaluation reaches full Monte Carlo "
           "on a ~100 us kernel, so search bookkeeping and the prefix tier dominate")
    cycle_s = 2.6

    def __init__(self):
        super().__init__()
        from repro.workflow import generators

        # Epigenomics seed 0 is left out: its plan meets the deadline in
        # 92% of simulated runs, too close to the p - 0.10 failure rule.
        self.makers = {
            "montage-1": lambda s: _montage(1.0, s),
            "epigenomics-100": lambda s: generators.epigenomics(100, seed=s),
        }
        self.pool = {"montage-1": (0, 1, 2, 3, 4, 5), "epigenomics-100": (1, 2, 3, 4, 5, 6)}


class ColdMidMC(ColdSchedule):
    name = "cold-mid-mc"
    why = ("240-task Montage-4, still below the analytic tier's 256-task gate: "
           "the full-MC kernel and the dominance mask do the work")
    cycle_s = 2.8

    def __init__(self):
        super().__init__()
        self.makers = {"montage-4": lambda s: _montage(4.0, s)}
        self.pool = {"montage-4": (0, 1, 2, 3, 4)}


class ColdLargeCascade(ColdSchedule):
    name = "cold-large-cascade"
    why = ("680-task Montage-8: the analytic tier settles nearly all candidates, so "
           "compile and quantile calibration show; mirror image of the two MC workloads")
    cycle_s = 2.7
    sim_plans = 2

    def __init__(self):
        super().__init__()
        self.makers = {"montage-8": lambda s: _montage(8.0, s)}
        self.pool = {"montage-8": (0, 1, 2, 3)}


class SweepLargeWarm(Workload):
    """One engine, Montage-8, deadlines x percentiles, round after round."""

    name = "sweep-large-warm"
    why = ("one warm engine sweeps 3 deadlines x 2 percentiles on Montage-8: makespan cache, "
           "frontier context and compiled-problem memo reused; tight ops push ~1000 states to full MC")
    round_s = 2.9
    sim_plans = 2
    workers: int | None = None

    def __init__(self):
        super().__init__()
        self.makers = {"montage-8": lambda s: _montage(8.0, s)}
        self.deco = None

    def warmup_keys(self):
        return ["montage-8/s7"]

    def ops(self, seed, seconds, smoke):
        rounds = 1 if smoke else max(2, _cycles(seconds, self.round_s))
        ops = [
            Op(f"round{r} {d}/{p:g}", "montage-8/s7", d, p)
            for r in range(rounds)
            for d in SWEEP_DEADLINES
            for p in SWEEP_PERCENTILES
        ]
        return ops[:3] if smoke else ops

    def start(self) -> None:
        self.deco = self._engine(workers=self.workers)
        self.deco.schedule(self.workflows["montage-8/s7"], "medium", 96.0)

    def stop(self) -> None:
        if self.deco is not None:
            self.deco.close()
            self.deco = None

    def run_op(self, op):
        plan = self.deco.schedule(self.workflows[op.workflow], op.deadline, op.percentile)
        return plan, self.deco.last_result

    def layer_stats(self) -> dict:
        return self.deco.cache_stats()


class SweepLargeSharded(SweepLargeWarm):
    name = "sweep-large-sharded"
    why = ("the same sweep on Deco(workers=2): shard pool, shared-memory arena, adaptive shards "
           "and speculation on the one regime they target; ratio to the serial twin is the scaling number")

    def __init__(self):
        super().__init__()
        # Never more workers than usable CPUs; with one CPU this is the
        # serial sweep and parallel.speedup reads 0 (not measured).
        self.workers = min(2, usable_cpus())


class WlogDeclarative(Workload):
    """Fresh engine and registry per op: WLog source -> IR -> plan."""

    name = "wlog-declarative"
    why = ("solve_program on 1-task pipelines: almost all time is histogram materialisation "
           "in wlog/distributions while the solver idles; what every --wlog service job pays")
    cycle_s = 9.5
    pool_seeds = (0, 1, 2, 3, 4)

    def __init__(self):
        super().__init__()
        from repro.workflow import generators

        self.makers = {"pipeline-1": lambda s: generators.pipeline(1, seed=s)}

    def generate(self, ops) -> None:
        from repro.engine.plan import deadline_presets
        from repro.wlog.library import scheduling_program

        super().generate(ops)
        self.sources = {
            key: scheduling_program(
                cloud="amazonec2",
                workflow="pipeline",
                percentile=96.0,
                deadline_seconds=deadline_presets(wf, self.catalog).medium,
            )
            for key, wf in self.workflows.items()
        }

    def ops(self, seed, seconds, smoke):
        rng = random.Random(f"{seed}/{self.name}")
        keys = [f"pipeline-1/s{s}" for s in self.pool_seeds]
        ops = []
        for _ in range(1 if smoke else _cycles(seconds, self.cycle_s)):
            ops.extend(Op(f"{key} medium/96", key) for key in _pool_order(keys, rng))
        return ops

    def start(self) -> None:
        self.run_op(Op("warm-up", self.warmup_keys()[0]))

    def run_op(self, op):
        from repro.wlog.imports import ImportRegistry

        deco = self._engine()
        registry = ImportRegistry()
        registry.register_cloud("amazonec2", self.catalog)
        registry.register_workflow("pipeline", self.workflows[op.workflow])
        plan = deco.solve_program(self.sources[op.workflow], registry)
        return plan, deco.last_result


class ServiceMix(Workload):
    """In-process ``DecoService``; latency is ``submit()`` to terminal state."""

    name = "service-mix"
    why = ("in-process DecoService(workers=2), <= 2 jobs outstanding, new / same-workflow / repeated "
           "jobs 2:1:1: journal fsync, admission, plan cache, problem store, warm workers and IPC")
    group_s = 0.45   # nominal seconds per group of four jobs
    max_outstanding = 2
    pause_groups = 3

    def __init__(self):
        super().__init__()
        from repro.service.worker import build_workflow

        # The workflow a job names is the one the service worker builds.
        self.makers = {"montage-1": lambda s: build_workflow(self._ref(s))}
        self.service = None
        self.tmpdir = None

    @staticmethod
    def _ref(seed: int) -> dict:
        return {"app": "montage", "degrees": 1.0, "seed": seed}

    def warmup_keys(self):
        return [f"montage-1/s{WARMUP_SEED}", f"montage-1/s{WARMUP_SEED + 1}"]

    def ops(self, seed, seconds, smoke):
        groups = 1 if smoke else max(2, round(seconds / self.group_s))
        rng = random.Random(f"{seed}/{self.name}")
        seeds = [100 + i for i in range(2 * groups)]
        rng.shuffle(seeds)
        ops: list[Op] = []
        for g in range(groups):
            a, b = f"montage-1/s{seeds[2 * g]}", f"montage-1/s{seeds[2 * g + 1]}"
            base = len(ops)
            ops += [
                Op(f"{a} new", a),
                Op(f"{b} new", b),
                # Same workflow, other percentile: a problem-store hit
                # once the job that compiled the workflow has finished.
                Op(f"{b} p90", b, percentile=90.0, depends_on=base + 1),
                # The first job again: a plan-cache hit.
                Op(f"{a} repeat", a, depends_on=base),
            ]
        return ops[:3] if smoke else ops

    def _payload(self, op: Op) -> dict:
        seed = int(op.workflow.rsplit("/s", 1)[1])
        return {"workflow": self._ref(seed), "deadline": op.deadline, "percentile": op.percentile}

    def start(self) -> None:
        from repro.service.runtime import DecoService, ServiceConfig

        self.tmpdir = tempfile.mkdtemp(prefix="journal-", dir=self.out_dir)
        self.journal_path = os.path.join(self.tmpdir, "jobs.jsonl")
        self.service = DecoService(
            ServiceConfig(
                journal_path=self.journal_path,
                workers=min(2, usable_cpus()),
                engine=dict(ENGINE),
            )
        )
        self.service.start()
        # One warm-up job per worker, so both build their engines.
        self.run_ops([Op("warm-up", key) for key in self.warmup_keys()])

    def stop(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None

    def run_ops(self, ops, speed=None, tracer=None):
        """Submit the ops in order, at most ``max_outstanding`` in flight.

        Every ``pause_groups`` groups the client waits for its outstanding
        jobs, so that the host-speed tick is taken while both workers idle.
        """
        from repro.engine.plan import ProvisioningPlan

        svc = self.service
        records: list[OpRecord | None] = [None] * len(ops)
        outstanding: dict[int, tuple[str, float, float]] = {}  # index -> (job id, t0, t_submitted)

        def harvest() -> None:
            for index in list(outstanding):
                job_id, t0, t_submitted = outstanding[index]
                job = svc.queue.get(job_id)
                if not job.terminal:
                    continue
                t_end = _clock()
                del outstanding[index]
                envelope = job.result or {}
                plan = error = None
                if job.state == "completed" and "plan" in envelope:
                    plan = ProvisioningPlan(**envelope["plan"])
                else:
                    error = f"terminal state {job.state}: {job.error}"
                solved = plan is not None and not job.cache_hit
                records[index] = OpRecord(
                    ops[index],
                    t_end - t0,
                    plan,
                    error,
                    {"evaluations": plan.evaluations} if solved else {},
                    {
                        "t_end": t_end,
                        "submit_s": t_submitted - t0,
                        "queue_wait_s": max(0.0, job.started_at - job.submitted_at)
                        if job.started_at
                        else 0.0,
                        "solve_s": float(envelope.get("solve_seconds", 0.0)) if solved else 0.0,
                        "cache_hit": bool(job.cache_hit),
                        "store_event": (envelope.get("problem_store") or {}).get("event"),
                    },
                    t0=t0,
                )

        def wait_until(done) -> None:
            while not done():
                harvest()
                time.sleep(0.0005)

        _tick(speed)
        for index, op in enumerate(ops):
            if index and index % (4 * self.pause_groups) == 0:
                wait_until(lambda: not outstanding)
                _tick(speed)
            wait_until(
                lambda: len(outstanding) < self.max_outstanding
                and (op.depends_on is None or records[op.depends_on] is not None)
            )
            t0 = _clock()
            try:
                job = svc.submit(self._payload(op))
            except Exception as exc:  # refused or malformed: a failed op
                records[index] = OpRecord(
                    op, _clock() - t0, None, f"{type(exc).__name__}: {exc}", t0=t0
                )
                continue
            outstanding[index] = (job.job_id, t0, _clock())
            harvest()
        wait_until(lambda: not outstanding)
        _tick(speed)
        if tracer is not None:
            for index, record in enumerate(records):
                if record.job:
                    _job_spans(tracer, index, record)
        return records

    def layer_stats(self) -> dict:
        stats = self.service.stats()
        stats["journal_bytes"] = os.path.getsize(self.journal_path)
        return stats


def _job_spans(tracer, op_id: int, record: OpRecord) -> None:
    """Spans of one service job, laid out from its ``JobRecord`` timings.

    Only ``submit()`` is a call the benchmark makes; queue wait and the
    worker's solve happen in other threads and processes, so their
    lengths come from the job record and the result envelope and are
    placed one after the other behind the submit span.
    """
    job = record.job
    root = tracer.add("service.job", record.t0, job["t_end"], -1, op_id)
    t = record.t0
    for name, length in (
        ("service.submit", job["submit_s"]),
        ("service.queue_wait", job["queue_wait_s"]),
        ("service.worker_solve", job["solve_s"]),
    ):
        end = min(job["t_end"], t + length)
        tracer.add(name, t, end, root, op_id)
        t = end


WORKLOADS = {
    cls.name: cls
    for cls in (
        ColdSmallMC,
        ColdMidMC,
        ColdLargeCascade,
        SweepLargeWarm,
        SweepLargeSharded,
        WlogDeclarative,
        ServiceMix,
    )
}
