"""The Deco facade (use case 1: workflow scheduling).

Two entry points:

* :meth:`Deco.schedule` -- programmatic: give it a workflow and a
  deadline, get a :class:`~repro.engine.plan.ProvisioningPlan`.  It
  compiles the workflow straight to arrays
  (:meth:`CompiledProblem.compile`; no WLog text, no IR) and runs the
  transformation-driven search on the vectorized backend.
* :meth:`Deco.solve_program` -- declarative: hand it WLog source (plus
  an import registry) exactly as a Pegasus user would.  The program is
  checked, translated to the probabilistic IR and compiled to the same
  arrays; ``tests/engine/test_deco.py::TestDeclarativePath`` holds
  ``solve_program`` on the Example 1 program
  (:func:`~repro.wlog.library.scheduling_program`) decision-for-decision
  equal to ``schedule``.
"""

from __future__ import annotations

import math
import numbers
import time
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING

# Uncalled here: benchmarks/e2e/tracing.py::LAYER_SPANS wraps this name as
# an attribute of this module, so it stays importable until that table drops it.
from repro.analysis.dominance import compute_op_mask  # noqa: F401
from repro.common.errors import ValidationError
from repro.cloud.instance_types import Catalog
from repro.engine.compiler import compile_or_raise
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.engine.plan import DeadlinePresets, ProvisioningPlan, deadline_presets
from repro.solver.backends import CompiledProblem, get_backend
from repro.solver.search import GenericSearch, SearchResult
from repro.solver.state import PlanState
from repro.wlog.analysis import check_program, reject_fatal
from repro.wlog.imports import ImportRegistry
from repro.wlog.probir import translate
from repro.wlog.program import WLogProgram
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

if TYPE_CHECKING:  # a serial engine never loads the pool modules
    from repro.solver.shards import ShardPlane

__all__ = ["Deco"]


def _integer(name: str, value) -> int:
    """``value`` as an ``int``; a bool or a non-integer raises, never truncates."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Deco:
    """The declarative optimization engine.

    Parameters
    ----------
    catalog:
        Instance catalog (see :func:`repro.cloud.ec2_catalog`).
    seed:
        Root seed for the Monte Carlo sample tensor.
    backend:
        One of :data:`~repro.solver.backends.BACKEND_NAMES`: ``"gpu"``
        (vectorized Monte Carlo, default) or ``"analytic"`` (moment
        propagation, no sampling -- deterministic and fastest; its
        deadline-probability error against full Monte Carlo is held
        below ``ANALYTIC_PROB_ERROR_BOUND`` by
        ``tests/solver/test_analytic_backend.py::TestErrorBound``).
        The single-thread CPU reference is not a choice here: build a
        :class:`~repro.solver.search.GenericSearch` with
        ``backend=ScalarBackend()`` to solve against it.
    num_samples:
        Monte Carlo realizations per state evaluation.
    max_evaluations:
        The cap on the search's state evaluations (a solve ends earlier
        once its beam stops improving); the beam's shape is
        :class:`~repro.solver.search.GenericSearch`'s default.
    faults / recovery:
        Engine-level fault model: every :meth:`schedule` call without
        its own ``faults`` scores plans under this one.  It travels in
        :meth:`spec`, so worker engines solve fault-aware too.
    workers:
        Shard the beam search's candidate evaluation across this many
        persistent worker processes (the distributed beam solve,
        DESIGN.md §13).  ``None`` or ``1`` keeps the solve in-process.
        Each shard holds a worker-resident engine rebuilt once from
        :meth:`spec` whose caches stay warm across beam iterations; a
        sharded solve picks the serial solve's plan, cold (the shard
        test matrix) or warm across a deadline sweep
        (``TestWarmSweepMatchesSerial``).  Both :meth:`schedule` and
        :meth:`solve_program` shard.  A solve's compiled problem reaches
        the shards through a shared-memory arena
        (:class:`~repro.solver.shards.ShardPlane`), so only its content
        key and deadline travel.  Where POSIX shared memory or process
        pools are missing, the engine warns once and evaluates
        in-process; call :meth:`close` (or use the engine as a context
        manager) to release the worker processes.

    A Deco instance memoizes the compiled problem per workflow
    (deadline/percentile changes derive via
    :meth:`CompiledProblem.with_deadline`, sharing the sample tensor);
    its backend memoizes the per-state makespan samples, tier 1's
    screening problems and their 32-sample prefix rows
    (``backend.cache`` / ``backend.eval_context`` on ``"gpu"``), the
    search's moment memo tier 0's analytic ``(mean, variance)`` rows and
    its edit memo every expanded parent's Promote/Demote edits --
    none of them depends on the deadline, so deadline/percentile sweeps
    over the same workflow reuse every Monte Carlo and moment
    propagation and every expansion the search has already paid for, at
    every tier (on a sharded engine the Monte Carlo rows stay in the
    worker that computed them; shards do not expand, so the edit memo
    is the parent's).  That state is keyed by sample token and ends with its
    problem: evicting a compiled problem, or finishing a solve whose
    problem is not memoized (:meth:`solve_program`, a fault-aware
    :meth:`schedule`), forgets the token (``GenericSearch.forget``), so
    a warm engine holds the state of at most ``_PROBLEM_CACHE_SIZE``
    tensors.  :meth:`clear_caches` drops all of it from one place;
    :meth:`cache_stats` reports every memo, the search's edit memo included.
    """

    #: How many compiled problems (one per workflow) to keep alive.
    _PROBLEM_CACHE_SIZE = 8

    def __init__(
        self,
        catalog: Catalog,
        seed: int = 0,
        backend: str = "gpu",
        num_samples: int = 200,
        max_evaluations: int = 3000,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        workers: int | None = None,
    ):
        self.catalog = catalog
        self.seed = _integer("seed", seed)
        self.num_samples = _integer("num_samples", num_samples)
        if self.num_samples < 1:
            raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
        max_evaluations = _integer("max_evaluations", max_evaluations)
        self.backend = get_backend(backend)
        #: The :class:`SearchResult` of the most recent solve -- counter
        #: introspection for benchmarks and services (not plan content).
        self.last_result: SearchResult | None = None
        self.faults = faults
        self.recovery = recovery
        self.runtime_model = RuntimeModel(catalog)
        # id(workflow) -> (workflow, base CompiledProblem); the stored
        # workflow reference pins the id and guards against reuse.
        self._problems: OrderedDict[int, tuple[Workflow, CompiledProblem]] = OrderedDict()
        # Workflow object -> DeadlinePresets (weak-keyed).
        self._presets: weakref.WeakKeyDictionary[Workflow, DeadlinePresets] = (
            weakref.WeakKeyDictionary()
        )
        self._search = GenericSearch(
            backend=self.backend,
            max_evaluations=max_evaluations,
        )
        self.workers = 1
        if workers is not None:  # a serial engine never loads the pool modules
            from repro.parallel.executor import resolve_workers

            self.workers = resolve_workers(workers)
        # Distributed beam solve (DESIGN.md §13): the shard pool, tensor
        # arena and shard counters, built on the first sharded solve.
        self._shards: ShardPlane | None = None

    # Worker-process rebuilding --------------------------------------------

    def spec(self) -> dict:
        """Picklable constructor arguments reproducing this engine.

        Worker processes rebuild an equivalent (cold-cache) Deco from
        this spec instead of pickling live caches and sample tensors.
        A cold rebuilt engine picks the same plan as a warm one only
        while tier 1 is off (``num_samples < 64``): tier 1's screening
        memo pins the deadline of the op that built it (ROADMAP item 2;
        ``tests/parallel/test_determinism.py::
        TestWarmEngineMatchesFreshEngine``).

        ``workers`` is deliberately excluded: a rebuilt engine always
        solves in-process, so worker processes never spawn nested pools.
        """
        return {
            "catalog": self.catalog,
            "seed": self.seed,
            "backend": self.backend.name,
            "num_samples": self.num_samples,
            "max_evaluations": self._search.max_evaluations,
            "faults": self.faults,
            "recovery": self.recovery,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Deco":
        """Rebuild an engine from :meth:`spec` (in a worker process)."""
        return cls(**spec)

    def _shard_plane(self) -> ShardPlane:
        if self._shards is None:
            from repro.solver.shards import ShardPlane

            self._shards = ShardPlane(self.workers, self.spec(), self._search)
        return self._shards

    def close(self) -> None:
        """Release the shard pool's worker processes (idempotent).

        The engine stays fully usable afterwards: a later sharded
        solve lazily rebuilds the pool, and serial solves never needed
        it.  Long-running services and the CLI call this when a batch
        of solves is done; ``with Deco(...) as deco:`` does it for you.
        """
        if self._shards is not None:
            self._shards.close()

    def __enter__(self) -> "Deco":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Cache management ------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every evaluation cache this engine holds.

        Long-running services call this between tenants/workloads to
        bound memory: the compiled problem memo, the backend's memos
        (makespan rows, tier 1's screening problems and prefix rows) and pooled
        scratch buffers, and tier 0's calibrations and
        moment memo all reset to cold.  Subsequent solves are slower but
        bit-identical -- every cache is a pure memo.
        """
        self._problems.clear()
        self._presets.clear()
        self._search.clear_caches()

    def cache_stats(self) -> dict:
        """One-stop memory/hit-rate report across all evaluation caches.

        Keys: the backend's (on ``"gpu"``: ``makespan`` -- hit/miss/entry
        counters plus ``nbytes``, and as ``prefix_*`` the same four of
        tier 1's prefix rows -- and ``screen``, tier 1's screening
        problems as ``entries`` and ``nbytes``; on ``"analytic"``:
        ``analytic``), the search's (``moments``, tier 0's moment memo;
        ``expansions``, the edit memo of expanded parents; and
        ``analytic``, tier 0's work counters, once tier 0 has run),
        ``scratch`` (``buffers`` and ``nbytes`` of the backend's scratch
        pool, which tier 0 shares), ``compiled_problems`` (memoized
        problem count), and -- on a
        sharded engine (``workers > 1``) -- ``distributed``: the worker
        count, the number of sharded solves, and the lifetime aggregate
        of the shards' reported cache and tier-0 counters, so sharded
        engines report the work their workers did instead of near-empty
        parent caches.
        """
        stats: dict = {**self._search.cache_stats(), **self.backend.cache_stats()}
        pool = self.backend.pool
        stats["scratch"] = {"buffers": len(pool), "nbytes": pool.nbytes()}
        stats["compiled_problems"] = len(self._problems)
        if self.workers > 1:
            stats["distributed"] = self._shard_plane().stats()
        return stats

    # Deadline helpers ------------------------------------------------------

    def presets(self, workflow: Workflow) -> DeadlinePresets:
        """Dmin/Dmax-based deadline presets for ``workflow`` (memoised)."""
        presets = self._presets.get(workflow)
        if presets is None:
            presets = self._presets[workflow] = deadline_presets(
                workflow, self.catalog, self.runtime_model
            )
        return presets

    def _resolve_deadline(self, workflow: Workflow, deadline: float | str) -> float:
        if isinstance(deadline, str):
            return self.presets(workflow).get(deadline)
        if isinstance(deadline, bool):
            raise ValidationError(f"deadline must be seconds or a preset name, got {deadline!r}")
        if not (math.isfinite(deadline) and deadline > 0):
            raise ValidationError(f"deadline must be a finite number > 0, got {deadline}")
        return float(deadline)

    # Programmatic API --------------------------------------------------------

    def schedule(
        self,
        workflow: Workflow,
        deadline: float | str = "medium",
        deadline_percentile: float = 96.0,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        solve_deadline_s: float | None = None,
    ) -> ProvisioningPlan:
        """Optimize instance configurations for one workflow.

        Minimizes expected monetary cost (paper Eq. 1) subject to the
        probabilistic deadline P(makespan <= D) >= p (Eq. 3).

        With a fault model (per-call or engine-level), plans are scored
        *under* the faults: sampled task times and Eq.-1 costs are
        inflated by the analytic expected-retry/straggler/checkpoint
        factors (:meth:`CompiledProblem.with_faults`).  A WLog program's
        ``reliability(P, R)`` constraint goes through
        :meth:`solve_program`.

        ``solve_deadline_s`` is a wall-clock budget (the cooperative
        watchdog, see :meth:`GenericSearch.solve`): when it expires at
        an iteration boundary the search returns its best incumbent
        with ``timed_out=True`` on the plan instead of wedging.  A
        budget the solve never exhausts leaves the plan bit-identical
        to the unbounded run.
        """
        d = self._resolve_deadline(workflow, deadline)
        problem = self._compiled(workflow).with_deadline(d, percentile=deadline_percentile)
        f = faults if faults is not None else self.faults
        r = recovery if recovery is not None else self.recovery
        if f is None:
            return self._solve(problem, solve_deadline_s)
        # The inflated tensor is fresh on every call: no later one asks for it.
        return self._solve(problem.with_faults(f, r), solve_deadline_s, kept=False)

    def _compiled(self, workflow: Workflow) -> CompiledProblem:
        """Compile ``workflow`` once; later deadlines derive from the base.

        The returned problem carries a placeholder deadline -- callers
        always go through :meth:`CompiledProblem.with_deadline`, which
        shares the sample tensor so the makespan cache keeps hitting.
        """
        key = id(workflow)
        entry = self._problems.get(key)
        if entry is not None and entry[0] is workflow:
            self._problems.move_to_end(key)
            return entry[1]
        problem = CompiledProblem.compile(
            workflow=workflow,
            catalog=self.catalog,
            deadline=1.0,
            percentile=96.0,
            num_samples=self.num_samples,
            seed=self.seed,
            runtime_model=self.runtime_model,
        )
        self._problems[key] = (workflow, problem)
        while len(self._problems) > self._PROBLEM_CACHE_SIZE:
            # An evicted problem's tensor is never asked for again (a new
            # compile gets a new token): its evaluation state goes with it.
            _, (_, evicted) = self._problems.popitem(last=False)
            self._search.forget(evicted.sample_token)
        return problem

    # Declarative API -----------------------------------------------------------

    def solve_program(
        self,
        source_or_program: str | WLogProgram,
        registry: ImportRegistry,
        solve_deadline_s: float | None = None,
    ) -> ProvisioningPlan:
        """Solve a WLog scheduling program (the paper's Example 1 shape).

        Two static analyses run once each, both before IR translation,
        and raise :class:`~repro.common.errors.WLogAnalysisError` on
        error-level findings (warnings pass; ``repro lint --strict``
        rejects them before a program reaches the engine):

        1. :func:`~repro.wlog.analysis.check_program` -- undefined
           predicates, malformed requirements, unsafe negation...
           against the fact families the registry says the imports
           materialize (the same set :func:`translate` produces, so the
           compiled path does not check again);
        2. :func:`repro.analysis.analyze_semantics` -- interval
           inference over the imported workflow/cloud: a provably
           unreachable deadline, budget or reliability requirement
           (E401-E403) is rejected in milliseconds instead of after a
           doomed solve.

        ``solve_deadline_s`` is the watchdog budget, as on :meth:`schedule`.
        """
        # Both analyzers are looked up at call time, on this module and on
        # repro.analysis: benchmarks/e2e/tracing.py::LAYER_SPANS wraps them there.
        from repro.analysis import analyze_semantics

        program = (
            WLogProgram.from_source(source_or_program)
            if isinstance(source_or_program, str)
            else source_or_program
        )
        program.validate_for_solving()
        check_program(program, registry=registry)
        report = analyze_semantics(program, registry=registry)
        reject_fatal(report.diagnostics, program.source, stage="semantic analysis")
        ir = translate(program, registry)
        problem = compile_or_raise(ir, num_samples=self.num_samples, seed=self.seed)
        return self._solve(problem, solve_deadline_s, kept=False)

    # Core ------------------------------------------------------------------------

    def _warm_starts(self, problem: CompiledProblem) -> tuple[PlanState, ...]:
        """Heuristic initial configurations (the paper defers initial-state
        choice to the transformation framework; we seed the search with the
        deadline-assignment heuristic at a few deadline tightenings so the
        transformation operations start from a competitive plan)."""
        from repro.baselines.autoscaling import autoscaling_choice

        # The ladder is built for the catalog the problem was compiled
        # from (a WLog program may import a cloud that is not this
        # engine's), from that catalog's fault-free mean times.
        catalog = problem.catalog
        model = self.runtime_model if catalog is self.catalog else RuntimeModel(catalog)
        # Deadline-assignment plans at several tightenings; evaluating the
        # whole ladder lets the search start from the cheapest feasible
        # heuristic plan and improve it with transformation operations.
        # Each rung's type indices are its state: no task names in between.
        return tuple(
            PlanState(
                autoscaling_choice(problem.workflow, catalog, problem.deadline * factor, model)
            )
            for factor in (1.0, 0.92, 0.85, 0.78, 0.7, 0.6, 0.5, 0.4)
        )

    def _solve(
        self, problem: CompiledProblem, solve_deadline_s: float | None, kept: bool = True
    ) -> ProvisioningPlan:
        """Solve ``problem`` from the warm-start ladder.

        ``kept=False``: no memo of this engine holds ``problem``, so its
        sample token's evaluation state is dropped when the solve ends.
        """
        seeds = self._warm_starts(problem)
        sharded = self._shard_plane().evaluator(problem) if self.workers > 1 else None
        t0 = time.perf_counter()
        try:
            result = self._search.solve(
                problem, seeds=seeds, evaluator=sharded, deadline_s=solve_deadline_s
            )
        finally:
            if not kept:
                self._search.forget(problem.sample_token)
        elapsed = time.perf_counter() - t0
        self.last_result = result
        return ProvisioningPlan(
            workflow_name=problem.workflow.name,
            assignment=result.assignment_names(problem),
            expected_cost=result.best_eval.cost,
            probability=result.best_eval.probability,
            feasible=result.best_eval.feasible,
            deadline=problem.deadline,
            deadline_percentile=problem.required_probability * 100.0,
            evaluations=result.evaluations,
            solve_seconds=elapsed,
            backend=self.backend.name,
            timed_out=result.timed_out,
        )
