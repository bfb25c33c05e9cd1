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
  (:meth:`Deco.example1_source`) decision-for-decision equal to
  ``schedule``.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict

# Uncalled here: benchmarks/e2e/tracing.py::LAYER_SPANS wraps this name as
# an attribute of this module, so it stays importable until that table drops it.
from repro.analysis.dominance import compute_op_mask  # noqa: F401
from repro.common.errors import InfeasibleError, ValidationError, WLogAnalysisError
from repro.cloud.instance_types import Catalog
from repro.engine.compiler import compile_or_raise
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.engine.plan import DeadlinePresets, ProvisioningPlan, deadline_presets
from repro.solver.backends import CompiledProblem, get_backend
from repro.solver.cache import EvalContext, MakespanCache
from repro.solver.search import GenericSearch, SearchResult
from repro.solver.state import PlanState
from repro.wlog.analysis import check_program
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.wlog.probir import translate
from repro.wlog.program import WLogProgram
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

__all__ = ["Deco"]


class Deco:
    """The declarative optimization engine.

    Parameters
    ----------
    catalog:
        Instance catalog (see :func:`repro.cloud.ec2_catalog`).
    seed:
        Root seed for the Monte Carlo sample tensor.
    backend:
        ``"gpu"`` (vectorized, default), ``"cpu"`` (scalar reference) or
        ``"analytic"`` (moment propagation, no sampling -- deterministic
        and fastest; its deadline-probability error against full Monte
        Carlo is held below ``ANALYTIC_PROB_ERROR_BOUND`` by
        ``tests/solver/test_analytic_backend.py::TestErrorBound``).
    num_samples:
        Monte Carlo realizations per state evaluation.
    max_evaluations / beam_width / children_per_state / expand_per_iter:
        Search budget knobs (see :class:`~repro.solver.search.GenericSearch`).
    workers:
        Shard the beam search's candidate evaluation across this many
        persistent worker processes (the distributed beam solve,
        DESIGN.md §13).  ``None`` or ``1`` keeps the solve in-process.
        Each shard holds a worker-resident engine rebuilt once from
        :meth:`spec` whose caches stay warm across beam iterations; a
        cold sharded solve picks the serial solve's plan (the shard
        test matrix), a warm one need not (ROADMAP item 1).  The
        solve's tensors reach the shards through a shared-memory arena
        where the platform has one
        (:func:`~repro.parallel.arena.arena_available`) and as a
        pickled prologue where it does not.  Environments that cannot
        run process pools downgrade to in-process evaluation with one
        warning; call :meth:`close` (or use the engine as a context
        manager) to release the worker processes.
    solve_deadline_s:
        Default wall-clock budget for every solve (the cooperative
        watchdog, see :meth:`GenericSearch.solve`): when it expires at
        an iteration boundary the search returns its best incumbent
        with ``timed_out=True`` on the plan instead of wedging.  A
        per-call ``solve_deadline_s`` on :meth:`schedule` overrides it;
        ``None`` (the default) solves unbounded.  A budget the solve
        never exhausts leaves plans bit-identical to the unbounded run.

    A Deco instance memoizes the compiled problem per workflow
    (deadline/percentile changes derive via
    :meth:`CompiledProblem.with_deadline`, sharing the sample tensor),
    through :attr:`cache` the per-state makespan samples, and through
    :attr:`eval_context` the finish-time frontiers of expanded states --
    so deadline/percentile sweeps over the same workflow reuse every
    Monte Carlo propagation the search has already paid for, and search
    children re-propagate only the levels their dirty tasks can affect.
    :meth:`clear_caches` / :meth:`cache_stats` bound and report all of
    it from one place for long-running services.
    """

    #: How many (workflow, region) compiled problems to keep alive.
    _PROBLEM_CACHE_SIZE = 8

    def __init__(
        self,
        catalog: Catalog,
        seed: int = 0,
        backend: str = "gpu",
        num_samples: int = 200,
        max_evaluations: int = 3000,
        beam_width: int = 24,
        children_per_state: int = 12,
        expand_per_iter: int = 8,
        require_feasible: bool = False,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        reliability_percentile: float | None = None,
        workers: int | None = None,
        solve_deadline_s: float | None = None,
    ):
        self.catalog = catalog
        self.seed = int(seed)
        self.cache = MakespanCache()
        self.eval_context = EvalContext()
        self.backend = get_backend(backend, cache=self.cache, eval_context=self.eval_context)
        self.num_samples = int(num_samples)
        self.require_feasible = require_feasible
        if solve_deadline_s is not None and solve_deadline_s <= 0:
            raise ValidationError(
                f"solve_deadline_s must be > 0 seconds, got {solve_deadline_s!r}"
            )
        self.solve_deadline_s = solve_deadline_s
        #: The :class:`SearchResult` of the most recent solve -- counter
        #: introspection for benchmarks and services (not plan content).
        self.last_result: SearchResult | None = None
        # Engine-level fault awareness: every schedule() call scores
        # plans under this fault model (per-call kwargs override).
        # Lives in spec() so worker processes solve fault-aware too.
        self.faults = faults
        self.recovery = recovery
        self.reliability_percentile = reliability_percentile
        self.runtime_model = RuntimeModel(catalog)
        # (id(workflow), region) -> (workflow, base CompiledProblem); the
        # stored workflow reference pins the id and guards against reuse.
        self._problems: OrderedDict[tuple, tuple[Workflow, CompiledProblem]] = OrderedDict()
        # Workflow object -> DeadlinePresets (weak-keyed).
        self._presets: weakref.WeakKeyDictionary[Workflow, DeadlinePresets] = (
            weakref.WeakKeyDictionary()
        )
        self._search = GenericSearch(
            backend=self.backend,
            children_per_state=children_per_state,
            beam_width=beam_width,
            max_evaluations=max_evaluations,
            expand_per_iter=expand_per_iter,
        )
        # Distributed beam solve: a lazily created shard-affine pool
        # (one resident engine per shard), a monotone per-solve id that
        # stamps every shard job, and the lifetime aggregate of the
        # worker-side cache/delta counters (cache_stats "distributed").
        self.workers = 1
        if workers is not None:  # a serial engine never loads the pool modules
            from repro.parallel.executor import resolve_workers

            self.workers = resolve_workers(workers)
        self._shard_pool = None
        self._solve_key = 0
        self._distributed_solves = 0
        self._shard_counters: dict[str, int] = {}
        # Shared-memory tensor plane (DESIGN.md §15): a lazily created
        # content-addressed arena hosting compiled-problem tensors that
        # shard workers map zero-copy, and a fingerprint memo so repeat
        # solves don't re-hash unchanged tensors.
        self._arena = None
        self._arena_warned = False
        self._fingerprints: OrderedDict[tuple, str] = OrderedDict()

    # Worker-process rebuilding --------------------------------------------

    def spec(self) -> dict:
        """Picklable constructor arguments reproducing this engine.

        Worker processes rebuild an equivalent (cold-cache) Deco from
        this spec instead of pickling live caches and sample tensors;
        solves are cache-transparent, so plans come out identical.

        ``workers`` is deliberately excluded: a rebuilt engine always
        solves in-process, so worker processes never spawn nested pools.
        """
        return {
            "catalog": self.catalog,
            "seed": self.seed,
            "backend": self.backend.name,
            "num_samples": self.num_samples,
            "max_evaluations": self._search.max_evaluations,
            "beam_width": self._search.beam_width,
            "children_per_state": self._search.children_per_state,
            "expand_per_iter": self._search.expand_per_iter,
            "require_feasible": self.require_feasible,
            "faults": self.faults,
            "recovery": self.recovery,
            "reliability_percentile": self.reliability_percentile,
            "solve_deadline_s": self.solve_deadline_s,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "Deco":
        """Rebuild an engine from :meth:`spec` (in a worker process)."""
        return cls(**spec)

    def _calibration_shipped(self, problem: CompiledProblem) -> bool:
        """Whether the arena segment should carry tier-0 quantile grids.

        Mirrors :meth:`GenericSearch._analytic_active`'s static gates --
        if the analytic tier can run on any shard, ship the calibration
        so no worker pays the ``np.quantile`` pass.  Shipping is a pure
        transfer optimization: a worker that calibrates locally gets
        bit-identical grids (``np.quantile`` over the same bytes).
        """
        return (
            problem.num_tasks >= self._search.analytic_min_tasks
            and 0.0 < problem.required_probability < 1.0
            and getattr(self.backend, "name", "") != "analytic"
        )

    def _publish_problem(self, problem: CompiledProblem) -> str:
        """Publish ``problem``'s tensors into the arena; return the key.

        The key is the SHA-256 content fingerprint of the immutable
        arrays (plus faults metadata), so deadline sweeps over one
        workflow republish nothing and distinct engines hosting the
        same workflow converge on the same segment.  The fingerprint is
        memoized per ``sample_token`` -- hashing a Montage-8 tensor is
        not free -- and publishing an already-hosted key is a counted
        no-op.
        """
        from repro.engine.compiler import export_problem_arrays, problem_fingerprint
        from repro.parallel.arena import TensorArena

        calibrated = self._calibration_shipped(problem)
        memo_key = (problem.sample_token, calibrated)
        key = self._fingerprints.get(memo_key)
        if key is None:
            key = problem_fingerprint(problem, calibrated=calibrated)
            self._fingerprints[memo_key] = key
            while len(self._fingerprints) > self._PROBLEM_CACHE_SIZE:
                self._fingerprints.popitem(last=False)
        else:
            self._fingerprints.move_to_end(memo_key)
        if self._arena is None:
            self._arena = TensorArena()
        if key in self._arena:
            self._arena.counters["hits"] += 1
            return key
        calibration = None
        if calibrated:
            calibration = self._search._analytic_evaluator()._calibration(problem)
        arrays, meta = export_problem_arrays(problem, calibration=calibration)
        self._arena.publish(key, arrays, meta)
        return key

    def _distributor(
        self,
        workflow: Workflow,
        region: str | None,
        problem: CompiledProblem,
        faults: FaultModel | None,
        recovery: RecoveryPolicy | None,
        reliability_percentile: float | None,
    ):
        """This solve's sharded evaluator, or ``None`` when serial.

        Spins up the persistent shard pool on first use (each worker
        rebuilds an engine from :meth:`spec` exactly once), then
        installs the solve's compiled problem on every shard as the
        pool's prologue -- a worker respawned after a crash replays it
        before its first job.  The platform selects one of two
        transports:

        * **arena** (where :func:`~repro.parallel.arena.arena_available`
          finds POSIX shared memory): the parent publishes ``problem``'s
          immutable tensors into the content-addressed
          :class:`~repro.parallel.TensorArena` and broadcasts only the
          content key plus the deadline/faults scalars; workers map the
          segment read-only zero-copy and rebuild the same
          :class:`CompiledProblem` over those bytes.
          The broadcast is stamped with the context key, so repeat
          solves of an unchanged problem skip serialization entirely.
        * **pickled prologue** (no ``/dev/shm``, or any arena failure
          -- one warning, then transparent fallback): broadcast the
          full compile/with_deadline/with_faults recipe and let each
          shard derive the problem itself.

        ``wf_key`` hashes the pickled workflow *content* (not its
        object identity); it keys the shards' base-compilation reuse on
        the pickled path.
        """
        if self.workers <= 1:
            return None
        import hashlib
        import pickle

        from repro.parallel.executor import ShardPool
        from repro.parallel.workers import (
            beam_begin_solve,
            beam_begin_solve_arena,
            init_beam_worker,
        )
        from repro.solver.shards import ShardedEvaluator

        if self._shard_pool is None:
            self._shard_pool = ShardPool(
                self.workers, initializer=init_beam_worker, initargs=(self.spec(),)
            )
        wf_key = hashlib.sha1(
            pickle.dumps((workflow, region), protocol=4)
        ).hexdigest()
        self._solve_key += 1
        solve_token: object = self._solve_key
        deadline = problem.deadline
        percentile = problem.required_probability * 100.0
        shipped = False
        try:
            from repro.parallel.arena import arena_available

            if arena_available():
                arena_key = self._publish_problem(problem)
                ctx_key = (
                    f"{arena_key}:{problem.deadline!r}"
                    f":{problem.required_probability!r}"
                )
                self._shard_pool.broadcast(
                    beam_begin_solve_arena,
                    (
                        ctx_key,
                        arena_key,
                        problem.deadline,
                        problem.required_probability,
                        problem.faults,
                        problem.recovery,
                        problem.reliability_required,
                    ),
                    stamp=ctx_key,
                )
                solve_token = ctx_key
                shipped = True
        except Exception as exc:
            if not self._arena_warned:
                self._arena_warned = True
                import warnings

                warnings.warn(
                    f"shared-memory arena unavailable ({exc!r}); "
                    "falling back to pickled-prologue broadcasts",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if not shipped:
            self._shard_pool.broadcast(
                beam_begin_solve,
                (
                    self._solve_key, wf_key, workflow, region,
                    deadline, percentile, faults, recovery, reliability_percentile,
                ),
            )
        self._distributed_solves += 1
        return ShardedEvaluator(self._shard_pool, solve_token)

    def close(self) -> None:
        """Release the shard pool's worker processes (idempotent).

        The engine stays fully usable afterwards: a later sharded
        solve lazily rebuilds the pool, and serial solves never needed
        it.  Long-running services and the CLI call this when a batch
        of solves is done; ``with Deco(...) as deco:`` does it for you.
        """
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "Deco":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Cache management ------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every evaluation cache this engine holds.

        Long-running services call this between tenants/workloads to
        bound memory: the makespan-row cache, the finish-time frontier
        context (including its screening-problem memo), the compiled
        problem memo, and the backend's pooled scratch buffers all reset
        to cold.  Subsequent solves are slower but bit-identical --
        every cache is a pure memo.
        """
        self.cache.clear()
        self.eval_context.clear()
        self._problems.clear()
        self._presets.clear()
        release = getattr(self.backend, "release_buffers", None)
        if release is not None:
            release()

    def cache_stats(self) -> dict:
        """One-stop memory/hit-rate report across all evaluation caches.

        Keys: ``makespan`` and ``frontier`` (hit/miss/entry counters
        plus ``nbytes``), ``compiled_problems`` (memoized problem
        count), ``delta`` (the backend's incremental-propagation
        counters, when the backend tracks them), ``analytic``
        (moment-propagation work counters, once any analytic tier or
        backend has run), and -- on a sharded engine (``workers > 1``)
        -- ``distributed``: the worker count, the number of sharded
        solves, and the lifetime aggregate of the shards' reported
        cache/delta/tier-0 counters, so sharded engines report the work
        their workers did instead of near-empty parent caches.
        """
        makespan = self.cache.counters()
        makespan["nbytes"] = self.cache.nbytes()
        frontier = self.eval_context.counters()
        frontier["nbytes"] = self.eval_context.nbytes()
        stats = {
            "makespan": makespan,
            "frontier": frontier,
            "compiled_problems": len(self._problems),
        }
        delta = getattr(self.backend, "delta_stats", None)
        if delta is not None:
            stats["delta"] = delta()
        analytic = getattr(self.backend, "analytic_stats", None)
        if analytic is None:
            analytic = self._search.analytic_stats
        tier0 = analytic()
        if tier0 is not None:
            stats["analytic"] = tier0
        if self.workers > 1:
            distributed: dict = {
                "workers": self.workers,
                "solves": self._distributed_solves,
            }
            distributed.update(self._shard_counters)
            if self._shard_pool is not None:
                distributed.update(self._shard_pool.counters)
            if self._arena is not None:
                arena_stats = self._arena.stats()
                distributed["arena_segments"] = arena_stats["segments"]
                distributed["arena_publishes"] = arena_stats["publishes"]
                distributed["arena_hits"] = arena_stats["hits"]
                distributed["arena_evictions"] = arena_stats["evictions"]
                distributed["arena_bytes"] = arena_stats["bytes_published"]
            stats["distributed"] = distributed
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
        if deadline <= 0:
            raise ValidationError(f"deadline must be > 0, got {deadline}")
        return float(deadline)

    # Programmatic API --------------------------------------------------------

    def schedule(
        self,
        workflow: Workflow,
        deadline: float | str = "medium",
        deadline_percentile: float = 96.0,
        region: str | None = None,
        seeds: tuple[PlanState, ...] = (),
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        reliability_percentile: float | None = None,
        solve_deadline_s: float | None = None,
    ) -> ProvisioningPlan:
        """Optimize instance configurations for one workflow.

        Minimizes expected monetary cost (paper Eq. 1) subject to the
        probabilistic deadline P(makespan <= D) >= p (Eq. 3).

        With a fault model (per-call or engine-level), plans are scored
        *under* the faults: sampled task times and Eq.-1 costs are
        inflated by the analytic expected-retry/straggler/checkpoint
        factors (:meth:`CompiledProblem.with_faults`), and
        ``reliability_percentile`` adds the ``reliability(P, R)``
        success-probability constraint.
        """
        d = self._resolve_deadline(workflow, deadline)
        problem = self._compiled(workflow, region).with_deadline(
            d, percentile=deadline_percentile
        )
        f = faults if faults is not None else self.faults
        r = recovery if recovery is not None else self.recovery
        rp = (
            reliability_percentile
            if reliability_percentile is not None
            else self.reliability_percentile
        )
        if f is not None:
            problem = problem.with_faults(f, r, reliability_percentile=rp)
        distributor = self._distributor(workflow, region, problem, f, r, rp)
        return self._solve(
            problem,
            seeds=tuple(seeds) + self._warm_starts(problem),
            distributor=distributor,
            solve_deadline_s=(
                solve_deadline_s
                if solve_deadline_s is not None
                else self.solve_deadline_s
            ),
        )

    def _compiled(self, workflow: Workflow, region: str | None) -> CompiledProblem:
        """Compile ``workflow`` once; later deadlines derive from the base.

        The returned problem carries a placeholder deadline -- callers
        always go through :meth:`CompiledProblem.with_deadline`, which
        shares the sample tensor so the makespan cache keeps hitting.
        """
        key = (id(workflow), region)
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
            region=region,
        )
        self._problems[key] = (workflow, problem)
        while len(self._problems) > self._PROBLEM_CACHE_SIZE:
            self._problems.popitem(last=False)
        return problem

    # Declarative API -----------------------------------------------------------

    def solve_program(
        self,
        source_or_program: str | WLogProgram,
        registry: ImportRegistry,
        region: str | None = None,
        strict: bool = False,
        analyze: bool = True,
    ) -> ProvisioningPlan:
        """Solve a WLog scheduling program (the paper's Example 1 shape).

        The program is statically analyzed first: error-level
        diagnostics (undefined predicates, malformed requirements,
        unsafe negation...) raise
        :class:`~repro.common.errors.WLogAnalysisError` before any IR
        translation; ``strict=True`` rejects warnings too.

        With ``analyze=True`` (the default) the semantic pass framework
        (:func:`repro.analysis.analyze_semantics`) then runs interval
        inference over the imported workflow/cloud *before* IR
        translation: a provably unreachable deadline, budget, or
        reliability requirement (E401-E403) is rejected in milliseconds
        instead of after a doomed solve.  ``strict=True`` rejects its
        W4xx warnings (vacuous constraints, dead rules) too;
        ``analyze=False`` skips the semantic gate entirely.
        """
        program = (
            WLogProgram.from_source(source_or_program)
            if isinstance(source_or_program, str)
            else source_or_program
        )
        program.validate_for_solving()
        check_program(program, registry=registry, strict=strict)
        if analyze:
            from repro.analysis import analyze_semantics
            from repro.wlog.diagnostics import render_diagnostics

            report = analyze_semantics(program, registry=registry)
            fatal = [d for d in report.diagnostics if d.is_error or strict]
            if fatal:
                rendered = render_diagnostics(fatal, program.source or None, "<program>")
                noun = "diagnostic" if len(fatal) == 1 else "diagnostics"
                raise WLogAnalysisError(
                    f"semantic analysis rejected the program with {len(fatal)} "
                    f"{noun}:\n{rendered}",
                    diagnostics=tuple(fatal),
                )
        ir = translate(program, registry)
        problem = compile_or_raise(ir, num_samples=self.num_samples, seed=self.seed, region=region)
        return self._solve(problem, seeds=self._warm_starts(problem))

    def example1_source(
        self,
        workflow_name: str = "montage",
        cloud_name: str = "amazonec2",
        deadline_seconds: float = 36_000.0,
        percentile: float = 95.0,
    ) -> str:
        """The WLog source :meth:`schedule` effectively runs (Example 1)."""
        return scheduling_program(
            cloud=cloud_name,
            workflow=workflow_name,
            percentile=percentile,
            deadline_seconds=deadline_seconds,
        )

    # Core ------------------------------------------------------------------------

    def _warm_starts(self, problem: CompiledProblem) -> tuple[PlanState, ...]:
        """Heuristic initial configurations (the paper defers initial-state
        choice to the transformation framework; we seed the search with the
        deadline-assignment heuristic at a few deadline tightenings so the
        transformation operations start from a competitive plan)."""
        from repro.baselines.autoscaling import autoscaling_plan

        # The ladder is built for the catalog the problem was compiled
        # from (a WLog program may import a cloud that is not this
        # engine's), from that catalog's fault-free mean times.
        catalog = problem.catalog
        model = self.runtime_model if catalog is self.catalog else RuntimeModel(catalog)
        # Deadline-assignment plans at several tightenings; evaluating the
        # whole ladder lets the search start from the cheapest feasible
        # heuristic plan and improve it with transformation operations.
        return tuple(
            problem.state_from_assignment(
                autoscaling_plan(problem.workflow, catalog, problem.deadline * factor, model)
            )
            for factor in (1.0, 0.92, 0.85, 0.78, 0.7, 0.6, 0.5, 0.4)
        )

    def _solve(
        self,
        problem: CompiledProblem,
        seeds: tuple[PlanState, ...] = (),
        distributor=None,
        solve_deadline_s: float | None = None,
    ) -> ProvisioningPlan:
        t0 = time.perf_counter()
        result = self._search.solve(
            problem,
            seeds=seeds,
            distributor=distributor,
            deadline_s=(
                solve_deadline_s
                if solve_deadline_s is not None
                else self.solve_deadline_s
            ),
        )
        elapsed = time.perf_counter() - t0
        self.last_result = result
        if distributor is not None:
            for key, value in distributor.counters.items():
                self._shard_counters[key] = self._shard_counters.get(key, 0) + value
        if self.require_feasible and not result.feasible_found:
            raise InfeasibleError(
                f"no plan meets P(makespan <= {problem.deadline:g}s) >= "
                f"{problem.required_probability:.0%} for workflow "
                f"{problem.workflow.name!r}"
            )
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
