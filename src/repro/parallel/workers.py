"""Per-worker context: rebuild simulator/Deco state inside each process.

Task functions dispatched through :class:`~repro.parallel.ParallelExecutor`
must be module-level (picklable by reference) and pure.  The stateful
parts -- a :class:`~repro.cloud.simulator.CloudSimulator` or a
:class:`~repro.engine.deco.Deco` engine -- are rebuilt once per worker
process by the initializers below from small picklable specs, never
shipped per task.  Rebuilding (rather than forking the parent's live
objects) is what makes the determinism contract auditable:

* the simulator's per-run streams derive statelessly from
  ``spawn_rng(seed, "sim/<workflow>/<region>/<run_id>")``, so a worker
  holding a pristine :class:`~repro.common.rng.RngService` replays run
  ``r`` identically to the serial loop, whatever other runs it was
  handed;
* a Deco solve is cache-transparent (memoized makespans and compiled
  problems return exactly what recomputation would), so a cold
  per-worker engine produces the same plan as the caller's warm one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.cloud.simulator import CloudSimulator, ExecutionResult
from repro.common.errors import DecoError, ExecutionAborted, ValidationError
from repro.common.rng import RngService
from repro.parallel.executor import ParallelExecutor, resolve_workers
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

if TYPE_CHECKING:  # import cycle guard (parallel <-> engine), typing only
    from repro.engine.deco import Deco
    from repro.engine.plan import ProvisioningPlan
    from repro.faults.model import FaultModel
    from repro.faults.recovery import RecoveryPolicy
    from repro.solver.backends import CompiledProblem
    from repro.solver.search import LocalEvaluator
    from repro.solver.state import PlanState, StateEval

__all__ = [
    "init_simulator_worker",
    "run_replication_chunk",
    "init_deco_worker",
    "solve_plan_job",
    "solve_plans",
    "init_beam_worker",
    "beam_begin_solve",
    "beam_begin_solve_arena",
    "beam_screen_job",
    "beam_eval_job",
]

# Worker-process singletons, populated by the initializers.  In serial
# mode the initializer runs in-process, so the same task functions work
# unchanged -- one code route for both modes.
_SIMULATOR: CloudSimulator | None = None
_DECO: "Deco | None" = None


# Simulation replications ----------------------------------------------------


def init_simulator_worker(catalog, rngs: RngService, runtime_model: RuntimeModel) -> None:
    """Build this worker's simulator from the parent's (picklable) parts.

    The RNG service is re-derived pristine from its seed: workers never
    inherit consumed generator state, so replication ``r`` sees exactly
    the stream ``spawn_rng(seed, ".../r")`` regardless of which worker
    (or the serial loop) executes it.
    """
    global _SIMULATOR
    _SIMULATOR = CloudSimulator(catalog, rngs.pristine(), runtime_model)


def run_replication_chunk(
    payload: tuple[
        Workflow, Mapping[str, str], str | None, Sequence[int], float, int,
        "FaultModel | None", "RecoveryPolicy | None", str,
    ],
) -> list[ExecutionResult]:
    """Execute a contiguous chunk of run ids on this worker's simulator.

    ``on_abort`` mirrors :meth:`CloudSimulator.run_many`: ``"raise"``
    propagates an :class:`~repro.common.errors.ExecutionAborted` to the
    parent, ``"skip"`` drops the aborted run from the chunk, and
    ``"record"`` keeps its censored partial result.  Handling it here
    (not in the parent) keeps skip/record batches alive without
    shipping exceptions across the pool.
    """
    (
        workflow, assignment, region, run_ids,
        failure_rate, max_retries, faults, recovery, on_abort,
    ) = payload
    if _SIMULATOR is None:
        raise RuntimeError("simulator worker used before init_simulator_worker")
    results: list[ExecutionResult] = []
    for run_id in run_ids:
        try:
            results.append(
                _SIMULATOR.execute(
                    workflow,
                    assignment,
                    region=region,
                    run_id=run_id,
                    failure_rate=failure_rate,
                    max_retries=max_retries,
                    faults=faults,
                    recovery=recovery,
                )
            )
        except ExecutionAborted as exc:
            if on_abort == "raise":
                raise
            if on_abort == "record" and exc.partial_result is not None:
                results.append(exc.partial_result)
    return results


# Deco solves ----------------------------------------------------------------


def init_deco_worker(spec: Mapping[str, object]) -> None:
    """Rebuild a pristine Deco engine from :meth:`Deco.spec`."""
    from repro.engine.deco import Deco

    global _DECO
    _DECO = Deco.from_spec(dict(spec))


def solve_plan_job(
    payload: tuple[object, Workflow, float | str, float, str],
) -> "tuple[object, ProvisioningPlan | None]":
    """Solve one (key, workflow, deadline, percentile, on_error) job.

    With ``on_error="record"`` a failed solve returns ``(key, None)``
    instead of raising -- failures stay data, never exceptions shipped
    across the pool.
    """
    key, workflow, deadline, percentile, on_error = payload
    if _DECO is None:
        raise RuntimeError("deco worker used before init_deco_worker")
    try:
        return key, _DECO.schedule(workflow, deadline, deadline_percentile=percentile)
    except DecoError:
        if on_error == "raise":
            raise
        return key, None


def solve_plans(
    deco: "Deco",
    jobs: Iterable[tuple[object, Workflow, float | str, float]],
    workers: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    on_error: str = "raise",
) -> "dict[object, ProvisioningPlan | None]":
    """Solve independent scheduling jobs, keyed by each job's key.

    The serial path reuses the caller's engine (keeping its compiled
    problem and makespan caches warm across calls); parallel workers
    rebuild cold engines from ``deco.spec()``.  Both yield identical
    plans because solves are cache-transparent.

    ``on_error="record"`` maps a member whose solve raises a
    :class:`~repro.common.errors.DecoError` (infeasible deadline, bad
    workflow) to ``None`` instead of killing the whole batch --
    :meth:`EnsembleDriver.member_plans` uses this to record-and-skip.
    """
    jobs = list(jobs)
    if on_error not in ("raise", "record"):
        raise ValidationError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    nworkers = resolve_workers(workers)
    if nworkers == 1 or len(jobs) <= 1:
        plans: "dict[object, ProvisioningPlan | None]" = {}
        for key, workflow, deadline, percentile in jobs:
            try:
                plans[key] = deco.schedule(
                    workflow, deadline, deadline_percentile=percentile
                )
            except DecoError:
                if on_error == "raise":
                    raise
                plans[key] = None
            if progress is not None:
                progress(len(plans), len(jobs))
        return plans
    executor = ParallelExecutor(
        nworkers, initializer=init_deco_worker, initargs=(deco.spec(),)
    )
    payloads = [(*job, on_error) for job in jobs]
    return dict(executor.map_tasks(solve_plan_job, payloads, progress=progress))

# Beam shards ----------------------------------------------------------------
#
# The distributed beam solve (see DESIGN.md §13) keeps one Deco engine
# resident per shard process and, per solve, one compiled problem derived
# exactly as ``Deco.schedule`` derives it (compile/with_deadline/
# with_faults).  A job runs that engine's in-process evaluator over its
# chunk; every decision stays with the tiers in the parent.

_BEAM_DECO: "Deco | None" = None
#: wf_key (content hash of the pickled workflow/region) -> base problem.
_BEAM_BASES: "dict[str, CompiledProblem]" = {}
_BEAM_BASE_ORDER: list[str] = []
_BEAM_BASE_LIMIT = 4
#: The current solve's (context token, derived problem); solves are
#: sequential, so one slot suffices.  The token is an int solve id on
#: the legacy pickled-prologue path and the arena context key (string)
#: on the shared-memory path.
_BEAM_PROBLEM: "tuple[object, CompiledProblem] | None" = None
#: arena content key -> (attached segment, base problem over its arrays).
#: Keeps the shared mapping (and the derived problem reusing it) alive
#: across solves; LRU-bounded so a long-lived shard cannot accumulate
#: mappings for every workflow it ever saw.
_BEAM_SEGMENTS: "OrderedDict[str, tuple[object, CompiledProblem]]" = OrderedDict()
_BEAM_SEGMENT_LIMIT = 4


def init_beam_worker(spec: Mapping[str, object]) -> None:
    """Rebuild this shard's resident Deco engine from :meth:`Deco.spec`.

    Runs once per worker process (and once in-process for the serial
    fallback path).  The engine's caches start cold and stay warm across
    beam iterations thanks to the :class:`ShardPool`'s shard affinity.
    """
    from repro.engine.deco import Deco

    global _BEAM_DECO, _BEAM_PROBLEM
    _BEAM_DECO = Deco.from_spec(dict(spec))
    _BEAM_PROBLEM = None
    _BEAM_BASES.clear()
    _BEAM_BASE_ORDER.clear()
    _BEAM_SEGMENTS.clear()


def beam_begin_solve(
    payload: tuple[
        int, str, Workflow, str | None, float, float,
        "FaultModel | None", "RecoveryPolicy | None", float | None,
    ],
) -> bool:
    """Install one solve's compiled problem in this shard (the prologue).

    Mirrors ``Deco.schedule`` exactly: compile the workflow once per
    content hash (``wf_key``), derive the deadline via ``with_deadline``
    (sharing the sample tensor, so the shard's makespan cache keeps
    hitting across deadline sweeps), then apply the fault model.  The
    sample tensor is a pure function of (workflow, catalog, num_samples,
    seed), so a respawned worker replaying this prologue reproduces the
    parent's evaluation numbers bit for bit.
    """
    (
        solve_key, wf_key, workflow, region,
        deadline, percentile, faults, recovery, reliability_percentile,
    ) = payload
    deco = _BEAM_DECO
    if deco is None:
        raise RuntimeError("beam worker used before init_beam_worker")
    from repro.solver.backends import CompiledProblem

    base = _BEAM_BASES.get(wf_key)
    if base is None:
        base = CompiledProblem.compile(
            workflow=workflow,
            catalog=deco.catalog,
            deadline=1.0,
            percentile=96.0,
            num_samples=deco.num_samples,
            seed=deco.seed,
            runtime_model=deco.runtime_model,
            region=region,
        )
        _BEAM_BASES[wf_key] = base
        _BEAM_BASE_ORDER.append(wf_key)
        while len(_BEAM_BASE_ORDER) > _BEAM_BASE_LIMIT:
            _BEAM_BASES.pop(_BEAM_BASE_ORDER.pop(0), None)
    problem = base.with_deadline(deadline, percentile=percentile)
    if faults is not None:
        problem = problem.with_faults(
            faults, recovery, reliability_percentile=reliability_percentile
        )
    if deco._calibration_shipped(problem):
        # Tier 0 can run on this shard, and a worker forked before the
        # parent first built it has not imported `scipy.special`: resolve
        # the evaluator here (the arena prologue does, adopting the
        # calibration), not inside the first timed screening round.
        deco._search._analytic_evaluator()
    global _BEAM_PROBLEM
    _BEAM_PROBLEM = (solve_key, problem)
    return True


def beam_begin_solve_arena(
    payload: tuple[
        str, str, float, float,
        "FaultModel | None", "RecoveryPolicy | None", float,
    ],
) -> bool:
    """Install one solve's problem by attaching its shared-memory segment.

    The zero-copy counterpart of :func:`beam_begin_solve`: instead of a
    pickled workflow, the payload carries the problem's arena content
    key plus the per-solve scalars (deadline, fault metadata).  The
    shard maps the parent's published tensors read-only, rebuilds a
    :class:`CompiledProblem` over them (and adopts the published
    analytic calibration, when present), and caches the attachment per
    content key so deadline sweeps re-derive via ``with_deadline`` --
    worker evaluation caches keep hitting exactly as on the legacy
    path.  Raises :class:`~repro.parallel.arena.ArenaError` when the
    segment cannot be attached; the parent falls back to the pickled
    prologue.
    """
    (
        ctx_key, arena_key, deadline, required_probability,
        faults, recovery, reliability_required,
    ) = payload
    deco = _BEAM_DECO
    if deco is None:
        raise RuntimeError("beam worker used before init_beam_worker")
    entry = _BEAM_SEGMENTS.get(arena_key)
    if entry is None:
        from repro.engine.compiler import calibration_from_segment, problem_from_segment
        from repro.parallel.arena import attach_segment

        segment = attach_segment(arena_key)
        base = problem_from_segment(
            segment,
            deco.catalog,
            deadline=1.0,
            required_probability=0.96,
            faults=faults,
            recovery=recovery,
            reliability_required=reliability_required,
        )
        calibration = calibration_from_segment(segment)
        if calibration is not None:
            deco._search._analytic_evaluator().adopt_calibration(
                base.sample_token, *calibration
            )
        _BEAM_SEGMENTS[arena_key] = (segment, base)
        while len(_BEAM_SEGMENTS) > _BEAM_SEGMENT_LIMIT:
            # Dropping the reference detaches lazily: the finalizer
            # closes the mapping once no derived problem aliases it.
            _BEAM_SEGMENTS.popitem(last=False)
    else:
        _BEAM_SEGMENTS.move_to_end(arena_key)
        _segment, base = entry
    problem = base.with_deadline(
        float(deadline), percentile=float(required_probability) * 100.0
    )
    global _BEAM_PROBLEM
    _BEAM_PROBLEM = (ctx_key, problem)
    return True


def _beam_evaluator(token: object) -> "LocalEvaluator":
    """A fresh in-process evaluator of the installed problem (one per job)."""
    if _BEAM_DECO is None:
        raise RuntimeError("beam worker used before init_beam_worker")
    if _BEAM_PROBLEM is None or _BEAM_PROBLEM[0] != token:
        raise RuntimeError(
            f"beam worker has no problem for solve {token} "
            "(begin-solve prologue missing or stale)"
        )
    return _BEAM_DECO._search.evaluator(_BEAM_PROBLEM[1])


def beam_screen_job(
    payload: "tuple[object, list[PlanState], str]",
) -> "tuple[object, dict[str, int]]":
    """One chunk of a screening call: ``"moments"`` (tier 0) or ``"screen"`` (tier 1).

    Returns the call's per-candidate values and the counter delta the
    chunk cost.
    """
    solve_key, states, call = payload
    evaluator = _beam_evaluator(solve_key)
    value = getattr(evaluator, call)(list(states))
    return value, evaluator.counters()


def beam_eval_job(
    payload: "tuple[object, list[PlanState], list[PlanState]]",
) -> "tuple[list[StateEval], dict[str, int]]":
    """Tier-2 full-fidelity evaluation of one chunk.

    Pins the chunk's expanded parents first, so the shard-resident
    EvalContext serves the delta-propagation path; a
    parent first seen by this shard is propagated in full -- slower,
    never different, because the delta path is bit-identical to the full
    kernel by construction.
    """
    solve_key, states, parents = payload
    evaluator = _beam_evaluator(solve_key)
    evals = evaluator.evaluate(list(states), parents) if states else []
    return evals, evaluator.counters()
