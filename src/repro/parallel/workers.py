"""Per-worker context: rebuild simulator/Deco state inside each process.

Job functions dispatched through :class:`~repro.parallel.ShardPool`
must be module-level (picklable by reference) and pure.  The stateful
parts -- a :class:`~repro.cloud.simulator.CloudSimulator` or a
:class:`~repro.engine.deco.Deco` engine -- are rebuilt once per worker
process by the initializers below from small picklable specs, never
shipped per job.  Rebuilding (rather than forking the parent's live
objects) is what makes the determinism contract auditable:

* the simulator's per-run streams derive statelessly from
  ``spawn_rng(seed, "sim/<workflow>/<region>/<run_id>")``, so a worker
  holding a pristine :class:`~repro.common.rng.RngService` replays run
  ``r`` identically to the serial loop, whatever other runs it was
  handed;
* a Deco solve is cache-transparent only while tier 1 is off
  (``num_samples < 64``): tier 1's screening memo pins the deadline of
  the op that built it (ROADMAP item 2), so a warm engine can return a
  different plan than a cold per-worker one on a deadline sweep.
  ``tests/parallel/test_determinism.py::TestWarmEngineMatchesFreshEngine``
  pins both cases.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.cloud.simulator import CloudSimulator, ExecutionResult
from repro.common.errors import DecoError, ExecutionAborted, ValidationError
from repro.common.rng import RngService
from repro.parallel.executor import ShardPool, resolve_workers
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

if TYPE_CHECKING:  # import cycle guard (parallel <-> engine), typing only
    from repro.engine.deco import Deco
    from repro.engine.plan import ProvisioningPlan
    from repro.faults.model import FaultModel
    from repro.faults.recovery import RecoveryPolicy
    from repro.solver.backends import CompiledProblem
    from repro.solver.search import LocalEvaluator
    from repro.solver.state import BatchEval, StateBlock

__all__ = [
    "init_simulator_worker",
    "run_replication_chunk",
    "init_deco_worker",
    "solve_plan_job",
    "solve_plans",
    "beam_begin_solve_arena",
    "beam_screen_job",
    "beam_eval_job",
]

# Worker-process singletons, populated by the initializers.  In serial
# mode the initializer runs in-process, so the same job functions work
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
        Workflow, Mapping[str, str], str | None, Sequence[int],
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
    workflow, assignment, region, run_ids, faults, recovery, on_abort = payload
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
    """Rebuild this worker's pristine Deco engine from :meth:`Deco.spec`.

    One engine serves both batch solves (:func:`solve_plan_job`) and
    beam shard jobs; the beam memos below are reset with it.  Runs once
    per worker process (and once in-process for the serial/fallback
    path).  The engine's caches start cold and stay warm across beam
    iterations thanks to the :class:`ShardPool`'s shard affinity.
    """
    from repro.engine.deco import Deco

    global _DECO, _BEAM_PROBLEM
    _DECO = Deco.from_spec(dict(spec))
    _BEAM_PROBLEM = None
    _BEAM_SEGMENTS.clear()


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
    on_error: str = "raise",
) -> "dict[object, ProvisioningPlan | None]":
    """Solve independent scheduling jobs, keyed by each job's key.

    The serial path reuses the caller's engine (keeping its compiled
    problem and makespan caches warm across calls); with ``workers > 1``
    job ``i`` runs on worker ``i % workers`` of a :class:`ShardPool`
    whose workers rebuild cold engines from ``deco.spec()``.  The two
    give identical plans while solves are cache-transparent, which
    holds only with tier 1 off (``num_samples < 64``; ROADMAP item 2,
    ``tests/parallel/test_determinism.py::
    TestWarmEngineMatchesFreshEngine``).

    ``on_error="record"`` maps a member whose solve raises a
    :class:`~repro.common.errors.DecoError` (infeasible deadline, bad
    workflow) to ``None`` instead of killing the whole batch --
    :meth:`EnsembleDriver.member_plans` uses this to record-and-skip.
    """
    jobs = list(jobs)
    if on_error not in ("raise", "record"):
        raise ValidationError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    nworkers = min(resolve_workers(workers), len(jobs))
    if nworkers <= 1:
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
        return plans
    pool = ShardPool(nworkers, initializer=init_deco_worker, initargs=(deco.spec(),))
    try:
        return dict(pool.run(solve_plan_job, [(*job, on_error) for job in jobs]))
    finally:
        pool.close()


# Beam shards ----------------------------------------------------------------
#
# The distributed beam solve (see DESIGN.md §13) keeps one Deco engine
# resident per shard process and, per solve, one compiled problem rebuilt
# over the parent's shared-memory segment (DESIGN.md §15).  A job runs
# that engine's in-process evaluator over its chunk; every decision stays
# with the tiers in the parent.

#: The current solve's (arena context key, derived problem); solves are
#: sequential, so one slot suffices.
_BEAM_PROBLEM: "tuple[str, CompiledProblem] | None" = None
#: arena content key -> (attached segment, base problem over its arrays).
#: Keeps the shared mapping (and the derived problem reusing it) alive
#: across solves; LRU-bounded so a long-lived shard cannot accumulate
#: mappings for every workflow it ever saw.
_BEAM_SEGMENTS: "OrderedDict[str, tuple[object, CompiledProblem]]" = OrderedDict()
_BEAM_SEGMENT_LIMIT = 4


def beam_begin_solve_arena(
    payload: tuple[
        str, str, float, float,
        "FaultModel | None", "RecoveryPolicy | None", float,
    ],
) -> bool:
    """Install one solve's problem by attaching its shared-memory segment.

    The begin-solve prologue: the payload carries the problem's arena
    content key plus the per-solve scalars (deadline, fault metadata).
    The shard maps the parent's published tensors read-only, rebuilds a
    :class:`CompiledProblem` over them, and caches the attachment per
    content key so deadline sweeps re-derive via ``with_deadline`` and
    worker evaluation caches keep hitting.  Evicting an attachment
    forgets its sample token in the engine's memos too.  Raises
    :class:`~repro.parallel.arena.ArenaError` when the segment cannot be
    attached; the parent then solves in-process.
    """
    (
        ctx_key, arena_key, deadline, required_probability,
        faults, recovery, reliability_required,
    ) = payload
    deco = _DECO
    if deco is None:
        raise RuntimeError("beam worker used before init_deco_worker")
    entry = _BEAM_SEGMENTS.get(arena_key)
    if entry is None:
        from repro.engine.compiler import problem_from_segment
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
        _BEAM_SEGMENTS[arena_key] = (segment, base)
        while len(_BEAM_SEGMENTS) > _BEAM_SEGMENT_LIMIT:
            # Dropping the reference detaches lazily: the finalizer
            # closes the mapping once no derived problem aliases it.
            _, (_, evicted) = _BEAM_SEGMENTS.popitem(last=False)
            deco._search.forget(evicted.sample_token)
    else:
        _BEAM_SEGMENTS.move_to_end(arena_key)
        _segment, base = entry
    problem = base.with_deadline(
        float(deadline), percentile=float(required_probability) * 100.0
    )
    global _BEAM_PROBLEM
    _BEAM_PROBLEM = (ctx_key, problem)
    return True


def _beam_evaluator(token: str) -> "LocalEvaluator":
    """A fresh in-process evaluator of the installed problem (one per job)."""
    if _DECO is None:
        raise RuntimeError("beam worker used before init_deco_worker")
    if _BEAM_PROBLEM is None or _BEAM_PROBLEM[0] != token:
        raise RuntimeError(
            f"beam worker has no problem for solve {token} "
            "(begin-solve prologue missing or stale)"
        )
    return _DECO._search.evaluator(_BEAM_PROBLEM[1])


def beam_screen_job(
    payload: "tuple[str, StateBlock, str]",
) -> "tuple[object, dict[str, int]]":
    """One chunk of a screening call: ``"moments"`` (tier 0) or ``"screen"`` (tier 1).

    Returns the call's per-candidate values and the counter delta the
    chunk cost.
    """
    solve_key, block, call = payload
    evaluator = _beam_evaluator(solve_key)
    value = getattr(evaluator, call)(block)
    return value, evaluator.counters()


def beam_eval_job(
    payload: "tuple[str, StateBlock]",
) -> "tuple[BatchEval, dict[str, int]]":
    """Tier-2 full-fidelity evaluation of one chunk (a state block).

    Returns the chunk's evaluations and the counter delta it cost.
    """
    solve_key, block = payload
    evaluator = _beam_evaluator(solve_key)
    return evaluator.evaluate(block), evaluator.counters()
