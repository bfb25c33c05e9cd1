"""State-evaluation backends: the compiled probabilistic IR.

The paper evaluates each searched state with Monte Carlo inference over
the probabilistic IR, accelerated on a GPU: *one thread per Monte Carlo
iteration, one thread block per state* (Section 5.2-5.3).  cupy/numba
are unavailable in this environment, so the GPU role is played by a
**vectorized NumPy backend** with the identical parallel decomposition:

* the sampled task-time tensor ``(K types, S realizations, N tasks)``
  plus a task-major copy ``(K, N, S)`` are precomputed once per problem
  (the GPU's device-resident data); the task-major layout makes each
  (type, task) row a contiguous S-sample run, so lane gathering is a
  row ``take`` driven by an ``(N, B)`` index matrix (coalesced reads);
* evaluating a batch of B states propagates finish times through the
  DAG in **level-parallel** order: :class:`~repro.solver.levels.LevelSchedule`
  precomputes the topological levels, each level's parent gather and
  a level-contiguous task permutation at compile time; the backend's
  fused kernel then, per level, gathers the lane block, advances
  finish times with gather + ``max`` reductions over the lanes of a
  chunk of states, and folds the block max into the running makespan
  while the block is cache-hot -- D (depth) Python iterations instead
  of N (tasks), exactly the wavefront a CUDA kernel would launch per
  level.  Like a thread block's, a chunk's working set is fixed
  (:data:`_FULL_BYTES`), whatever the batch size;
* the deadline probability is a mean over the S axis (a block-level
  reduction in the CUDA version).

The vectorized backend owns its evaluation state, as the paper's kernel
owns its device buffers: a :class:`~repro.solver.cache.MakespanCache`
that memoizes per-state makespan rows keyed by ``(sample_token, state
key)``, so deadline sweeps over :meth:`CompiledProblem.with_deadline`
derivations (same tensor, different feasibility test) reuse samples
instead of recomputing them, and a
:class:`~repro.solver.cache.EvalContext` of per-state finish-time
frontiers that powers **incremental (delta) evaluation**: a search
child that differs from its parent in a known dirty task set re-uses
the parent's cached frontier below the first dirty level and
recomputes only the affected suffix rows -- bit-identical to a full
propagation, at a fraction of the work.  As on the paper's GPU, one
launch takes all the states of a search iteration, whichever parents
they descend from (see :meth:`VectorizedBackend.ensure_frontier`).

The **scalar backend** computes the same quantities with pure-Python
loops -- the single-thread CPU baseline of the paper's speedup numbers.
Both backends are bit-identical on the same problem (asserted in the
test suite) and statistically consistent with the WLog interpreter's
Algorithm-1 evaluation.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SolverError, ValidationError
from repro.common.units import SECONDS_PER_HOUR
from repro.cloud.instance_types import Catalog
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.solver.cache import EvalContext, MakespanCache, ScratchPool
from repro.solver.levels import _COLUMN_FANIN_MAX, LevelSchedule, workflow_layout
from repro.solver.state import BatchEval, PlanState, StateBlock, StateEval, as_block
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

__all__ = [
    "CompiledProblem",
    "EvaluationBackend",
    "VectorizedBackend",
    "ScalarBackend",
    "get_backend",
    "validated_assignments",
    "BACKEND_NAMES",
]


#: Process-wide monotone generation counter for sample tensors.  Every
#: CompiledProblem with a *fresh* tensor gets the next token; tensor-
#: sharing derivations (``with_deadline``) inherit it.  Caches key on
#: the token instead of ``id(tensor)``, so two live problems can never
#: collide on recycled object ids and tensor identity is declared
#: explicitly rather than inferred from object aliasing.
_SAMPLE_TOKENS = itertools.count()


#: The delta kernel works through a level's pairs in tiles whose gathered
#: operands take about this many bytes, so a tile's lane rows, its two
#: gather buffers and its result stay in a core's L2 between the take,
#: the max and the add: measured on a 6000-pair, fan-in-3 level at
#: S = 150, 0.3-0.6 MB tiles run 25% faster than the untiled level, and
#: a wide-fan-in level (one 402-parent pair is 0.5 MB) is insensitive
#: from one pair per tile upwards.  It also bounds the kernel's pooled
#: temporaries whatever the batch size.
_TILE_BYTES = 512 << 10

#: The full kernel runs a batch in chunks of as many states as fit one
#: ``(N+1, chunk*S)`` finish matrix of this many bytes, so its pooled
#: buffers (finish, lanes, scratch) do not grow with the batch: two
#: states per chunk on Montage-8 at S = 150, twelve at tier 1's S = 32.
#: Measured on 65-state Montage-8 batches: 24 ms (S = 150) and 4.7 ms
#: (S = 32) per batch against 35 and 5.6 ms unchunked; 512 KB chunks
#: cost up to 30% more, 2 MB ones save under 10% for 2.5x the scratch.
_FULL_BYTES = 1 << 20


@dataclass(frozen=True)
class CompiledProblem:
    """The array form of a scheduling problem's probabilistic IR.

    Produced by :meth:`compile` from the same ingredients the WLog
    translation uses (workflow structure + runtime model histograms);
    the equivalence is covered by tests against the interpreter path.
    """

    workflow: Workflow
    catalog: Catalog
    mean_times: np.ndarray     # (K, N) mean task time per type
    tensor: np.ndarray         # (K, S, N) sampled task times, stored float32
    prices: np.ndarray         # (K,) $/hour in the catalog's default region
    parent_indices: tuple[tuple[int, ...], ...]  # per task, topological order
    deadline: float            # seconds
    required_probability: float  # P(makespan <= deadline) must reach this
    levels: LevelSchedule | None = None  # level-parallel layout (built if absent)
    #: (K, N, S) task-major copy of ``tensor``: row ``[k, i]`` holds task
    #: i's samples contiguously, so the backend's lane gather is K*N
    #: contiguous row copies instead of element-wise flat indexing.
    tensor_taskmajor: np.ndarray | None = None
    #: Fault expansion (set by :meth:`with_faults`): the declared fault
    #: model + recovery policy whose analytic expectation inflated the
    #: tensor, and the minimum plan success probability (0.0 = no
    #: reliability constraint).
    faults: FaultModel | None = None
    recovery: RecoveryPolicy | None = None
    reliability_required: float = 0.0
    #: Sample-tensor generation token (see ``_SAMPLE_TOKENS``).  ``None``
    #: means "this tensor is fresh": ``__post_init__`` stamps the next
    #: monotone value.  Derivations that share the tensor pass their own
    #: token through; derivations that rewrite it leave it ``None``.
    sample_token: int | None = None

    def __post_init__(self):
        # The one place the samples' precision is decided.  Draws and
        # fault inflation run in float64 and are rounded once here; every
        # array of sampled times (task-major copy, kernel buffers,
        # frontiers, memo rows) follows ``tensor.dtype``, so the Monte
        # Carlo kernels move half the bytes.  Deadline comparisons, means,
        # costs and tier 0's moments stay float64.
        if self.tensor.dtype != np.float32 or self.tensor.flags.writeable:
            tensor = self.tensor.astype(np.float32)
            tensor.setflags(write=False)
            object.__setattr__(self, "tensor", tensor)
        if self.levels is None:
            object.__setattr__(
                self, "levels", LevelSchedule.from_parent_indices(self.parent_indices)
            )
        if self.tensor_taskmajor is None:
            tm = np.ascontiguousarray(self.tensor.transpose(0, 2, 1))
            tm.setflags(write=False)
            object.__setattr__(self, "tensor_taskmajor", tm)
        if self.sample_token is None:
            object.__setattr__(self, "sample_token", next(_SAMPLE_TOKENS))

    @classmethod
    def compile(
        cls,
        workflow: Workflow,
        catalog: Catalog,
        deadline: float,
        percentile: float = 96.0,
        num_samples: int = 200,
        seed: int = 0,
        runtime_model: RuntimeModel | None = None,
    ) -> "CompiledProblem":
        _check_requirement(deadline, percentile)
        model = runtime_model or RuntimeModel(catalog)
        tensor = model.sample_tensor(workflow, num_samples, seed=seed)
        mean_times = model.mean_matrix(workflow)
        prices = np.asarray([catalog.price(name) for name in catalog.type_names], dtype=float)
        parents, levels = workflow_layout(workflow)
        return cls(
            workflow=workflow,
            catalog=catalog,
            mean_times=mean_times,
            tensor=tensor,
            prices=prices,
            parent_indices=parents,
            deadline=float(deadline),
            required_probability=percentile / 100.0,
            levels=levels,
        )

    @property
    def num_tasks(self) -> int:
        return self.tensor.shape[2]

    @property
    def num_types(self) -> int:
        return self.tensor.shape[0]

    @property
    def num_samples(self) -> int:
        return self.tensor.shape[1]

    def expected_cost(self, assignment: np.ndarray) -> float:
        """Paper Eq. 1-2: sum of mean task time x unit price (frac. hours)."""
        return float(self.expected_cost_batch(np.asarray(assignment)[None, :])[0])

    def expected_cost_batch(self, assignments: np.ndarray) -> np.ndarray:
        """Eq. 1 cost for a ``(B, N)`` assignment matrix, one pass."""
        a = np.asarray(assignments, dtype=np.int64)
        idx = np.arange(self.num_tasks)
        per_task = self.mean_times[a, idx] * self.prices[a]
        return per_task.sum(axis=-1) / SECONDS_PER_HOUR

    def state_from_assignment(self, assignment) -> PlanState:
        """Build a :class:`PlanState` from a task->type-name mapping."""
        # ``task_ids`` is the topological order the dense indices follow.
        names = map(assignment.__getitem__, self.workflow.task_ids)
        return PlanState(np.array(list(map(self.catalog.index_of, names)), dtype=np.int16))

    def with_deadline(self, deadline: float, percentile: float | None = None) -> "CompiledProblem":
        """Same problem under a different deadline requirement.

        Shares the sample tensor and level schedule, so makespan caches
        keyed on the tensor keep hitting across the derived problems.
        The requirement is checked as :meth:`compile` checks it: a finite
        deadline above 0 and a percentile in (0, 100].
        """
        _check_requirement(deadline, percentile)
        return CompiledProblem(
            workflow=self.workflow,
            catalog=self.catalog,
            mean_times=self.mean_times,
            tensor=self.tensor,
            prices=self.prices,
            parent_indices=self.parent_indices,
            deadline=float(deadline),
            required_probability=(
                self.required_probability if percentile is None else percentile / 100.0
            ),
            levels=self.levels,
            tensor_taskmajor=self.tensor_taskmajor,
            faults=self.faults,
            recovery=self.recovery,
            reliability_required=self.reliability_required,
            sample_token=self.sample_token,
        )

    def with_sample_prefix(self, prefix: int) -> "CompiledProblem":
        """The same problem restricted to the first ``prefix`` samples.

        The screening stage of the two-stage fidelity search evaluates
        beam candidates against this derivation first: the prefix uses
        the *same* draws for every state (common random numbers, and a
        strict prefix of the full tensor), so screened comparisons are
        paired with the full-fidelity ones.  The derived problem gets a
        fresh ``sample_token`` -- screening rows must never mix with
        full-fidelity cache entries.
        """
        if not 0 < prefix <= self.num_samples:
            raise SolverError(
                f"sample prefix must be in [1, {self.num_samples}], got {prefix}"
            )
        if prefix == self.num_samples:
            return self
        tensor = np.ascontiguousarray(self.tensor[:, :prefix, :])
        tensor.setflags(write=False)
        return CompiledProblem(
            workflow=self.workflow,
            catalog=self.catalog,
            mean_times=self.mean_times,
            tensor=tensor,
            prices=self.prices,
            parent_indices=self.parent_indices,
            deadline=self.deadline,
            required_probability=self.required_probability,
            levels=self.levels,
            faults=self.faults,
            recovery=self.recovery,
            reliability_required=self.reliability_required,
        )

    def with_faults(
        self,
        faults: FaultModel,
        recovery: RecoveryPolicy | None = None,
        reliability_percentile: float | None = None,
    ) -> "CompiledProblem":
        """Fault-aware derivation: score plans *under* the fault model.

        Every sampled task time (and the Eq.-1 mean times, so expected
        cost bills the retries too) is inflated by the analytic
        expectation of :meth:`FaultModel.inflate` -- expected-retry
        geometric series over the retry budget, expected straggler
        slowdown, steady-state checkpoint overhead, first-order
        crash-rework.  ``reliability_percentile`` (e.g. ``99.0``)
        additionally requires the plan's analytic success probability
        to reach that level (the WLog ``reliability(P, R)``
        constraint); the retry budget ``R`` lives on ``recovery``.

        The inflated tensor is a *new* array, so makespan caches keep
        fault-aware and fault-oblivious rows separate by construction.
        """
        recovery = recovery if recovery is not None else RecoveryPolicy()
        if reliability_percentile is not None and not 0 < reliability_percentile <= 100:
            raise SolverError(
                f"reliability percentile must be in (0, 100], got {reliability_percentile}"
            )
        return CompiledProblem(
            workflow=self.workflow,
            catalog=self.catalog,
            mean_times=faults.inflate(self.mean_times, recovery),
            tensor=faults.inflate(self.tensor, recovery),
            prices=self.prices,
            parent_indices=self.parent_indices,
            deadline=self.deadline,
            required_probability=self.required_probability,
            levels=self.levels,
            faults=faults,
            recovery=recovery,
            reliability_required=(
                0.0 if reliability_percentile is None else reliability_percentile / 100.0
            ),
        )

    @property
    def plan_success_probability(self) -> float:
        """Analytic P(every task succeeds within its retry budget)."""
        if self.faults is None:
            return 1.0
        recovery = self.recovery if self.recovery is not None else RecoveryPolicy()
        return self.faults.plan_success_probability(self.num_tasks, recovery)


def _check_requirement(deadline: float, percentile: float | None) -> None:
    """Raise :class:`SolverError` unless ``deadline`` / ``percentile`` can be met.

    A bool is no number here (``True`` would be a 1 s deadline or the
    1st percentile): :class:`ValidationError`.
    """
    for name, value in (("deadline", deadline), ("percentile", percentile)):
        if isinstance(value, bool):
            raise ValidationError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(deadline) and deadline > 0):
        raise SolverError(f"deadline must be a finite number > 0, got {deadline}")
    if percentile is not None and not 0 < percentile <= 100:
        raise SolverError(f"percentile must be in (0, 100], got {percentile}")


class EvaluationBackend(abc.ABC):
    """Evaluates batches of states against a compiled problem.

    A batch is a :class:`~repro.solver.state.StateBlock`, or any
    iterable of :class:`PlanState`, which :func:`as_block` stacks once at
    the entry point; an evaluation is a
    :class:`~repro.solver.state.BatchEval` of ``(B,)`` vectors.
    :meth:`evaluate` is the per-state view of the same path.

    A backend owns whatever evaluation state it keeps (memos, frontiers,
    scratch buffers) and reports it through :meth:`counters_snapshot`
    and :meth:`cache_stats`; :meth:`forget` drops one sample token's
    share of it and :meth:`release_buffers` all of it.  The base class
    keeps none.
    """

    name: str = "abstract"
    #: The ``source`` recorded in this backend's evaluations.
    source: str = "mc"
    #: The scratch pool a tier-0 evaluator may share (``None``: none).
    pool: ScratchPool | None = None

    @abc.abstractmethod
    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, S)`` per-realization makespans for B states."""

    def _sample_rows(
        self, problem: CompiledProblem, block: StateBlock, pins: StateBlock | None
    ) -> np.ndarray:
        """The ``(B, S)`` makespans :meth:`evaluate_batch` reduces.

        ``pins`` are the states' parents, to pin as :meth:`ensure_frontier`
        does; a backend with no frontiers ignores them.
        """
        return self.makespan_samples(problem, block)

    def evaluate_batch(
        self, problem: CompiledProblem, states, pins: StateBlock | None = None
    ) -> BatchEval:
        """Full evaluation: Eq. 1 cost + P(makespan <= D) per state.

        Cost, probability and mean makespan are all computed as single
        array reductions over the batch (no per-state Python arithmetic).
        ``pins`` (the states' parents) are pinned as by
        :meth:`ensure_frontier` on the way.
        """
        block = as_block(states)
        if not len(block):
            if pins is not None:
                self.ensure_frontier(problem, pins)
            return BatchEval.empty(0)
        makespans = self._sample_rows(problem, block, pins)
        # A float64 deadline: against a Python float, NumPy would round
        # the deadline to the samples' float32 instead (NEP 50).
        return self._batch_eval(
            problem, block, np.mean(makespans <= np.float64(problem.deadline), axis=1),
            makespans.mean(axis=1, dtype=np.float64),
        )

    def _batch_eval(
        self, problem: CompiledProblem, block: StateBlock, probs: np.ndarray, means: np.ndarray
    ) -> BatchEval:
        """The evaluations of ``block`` given its deadline probabilities and mean makespans."""
        threshold = problem.required_probability - 1e-12
        # The reliability constraint is analytic and assignment-free
        # (per-task success ** N), so it gates the whole problem at once.
        reliable = (
            problem.plan_success_probability >= problem.reliability_required - 1e-12
        )
        return BatchEval(
            problem.expected_cost_batch(block.assign),
            probs,
            (probs >= threshold) & reliable,
            means,
            np.full(len(block), self.source),
        )

    def evaluate(self, problem: CompiledProblem, state: PlanState) -> StateEval:
        return self.evaluate_batch(problem, [state])[0]

    def ensure_frontier(self, problem: CompiledProblem, *states) -> None:
        """Prepare to evaluate single-edit children of ``states`` cheaply.

        ``states`` is one :class:`StateBlock`, or :class:`PlanState`
        arguments; ``evaluate_batch(..., pins=states)`` does the same on
        the way.  Backends with nothing to prepare ignore it.
        """

    def counters_snapshot(self) -> dict[str, int]:
        """Flat monotone work counters (cache hits/misses, delta work).

        An evaluator diffs two snapshots for one solve's work, and shard
        jobs ship that delta back to the parent, so only monotone
        counters belong here -- sizes like ``entries`` do not aggregate.
        """
        return {}

    def cache_stats(self) -> dict[str, dict]:
        """This backend's entries of ``Deco.cache_stats()``."""
        return {}

    def forget(self, token: int) -> None:
        """Drop what this backend holds for sample token ``token``."""

    def release_buffers(self) -> None:
        """Drop this backend's memos and scratch (``Deco.clear_caches``)."""

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """``(B,)`` deadline probabilities from the first ``prefix`` samples.

        The cheap first stage of two-stage fidelity screening: same
        draws for every state (a strict prefix of the full tensor), no
        makespan-cache involvement -- prefix rows are not memoized, so a
        state screened again (a warm sweep's later solves) is
        re-propagated.
        """
        sp = problem.with_sample_prefix(prefix)
        makespans = self.makespan_samples(sp, as_block(states))
        return np.mean(makespans <= np.float64(sp.deadline), axis=1)


def validated_assignments(problem: CompiledProblem, states) -> np.ndarray:
    """A batch's validated ``(B, N)`` int64 assignment matrix.

    Shared by every array backend (vectorized MC and analytic): raises
    :class:`SolverError` when the block's length or type indices do not
    fit the compiled problem, so the kernels can skip bounds checks.
    """
    assign = as_block(states).assign
    if assign.shape[1] != problem.num_tasks and len(assign):
        raise SolverError(
            f"state has {assign.shape[1]} tasks, problem has {problem.num_tasks}"
        )
    if assign.min(initial=0) < 0:
        raise SolverError("state references a negative type index")
    if assign.max(initial=0) >= problem.num_types:
        raise SolverError("state references a type index outside the catalog")
    return assign.astype(np.int64)


class VectorizedBackend(EvaluationBackend):
    """The "GPU" backend: batched array evaluation (see module docstring).

    The fast path works in *permuted task-major* layout: per level, one
    flat-index ``take`` gathers a chunk's lane block with tasks already
    in level-contiguous order, and gather + ``max`` advances its finish
    times.  Large intermediates (lane block, finish matrix, level
    scratch) come from a small per-backend buffer pool, sized by the
    kernels' byte budgets rather than the batch -- reallocating
    multi-hundred-KB arrays every evaluation costs page faults that
    dominate the kernel at search-sized batches.  The pool makes the
    backend non-reentrant (one evaluation at a time per instance),
    matching a CUDA stream.

    The backend owns its memos: ``cache`` (the makespan rows
    :meth:`evaluate_batch` reduces) and ``eval_context`` (finish-time
    frontiers and the screening-problem memo) are built here unless the
    caller passes a context to share.  :meth:`makespan_samples` takes the
    **delta-propagation** path for every state whose parent frontier is
    cached: read the parent's finish rows in place, recompute only the
    dirty tasks' rows and their (transitive) descendants level by level
    -- for all such states of the batch in one kernel launch -- and
    reduce the makespan over the sink rows alone.  Every recomputed row
    applies the identical gather + ``max`` + ``add`` arithmetic to the
    identical operands in the problem's sample dtype, so the result is
    bit-identical to the full fused kernel (asserted in the test suite).
    ``delta_counters`` tracks how much work the short-circuit saved.
    """

    name = "gpu"

    def __init__(self, eval_context: EvalContext | None = None):
        self.cache = MakespanCache()
        self.eval_context = eval_context if eval_context is not None else EvalContext()
        #: Shared grow-only scratch pool (see
        #: :class:`~repro.solver.cache.ScratchPool`); the analytic
        #: screening tier reuses the same pool during a search.
        self.pool = ScratchPool()
        #: Monotone work counters of the incremental path: states routed
        #: through delta vs full propagation, and how many level / row
        #: recomputations the delta route skipped.
        self.delta_counters = {
            "states_incremental": 0,
            "states_full": 0,
            "levels_skipped": 0,
            "levels_total": 0,
            "rows_recomputed": 0,
            "rows_total": 0,
        }

    def _buf(self, name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """A pooled scratch view (contents undefined; see ScratchPool)."""
        return self.pool.take(name, shape, dtype)

    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, S)`` makespans of ``states``, delta-propagated where a
        parent frontier is resident (no memo involved)."""
        return self._launch(problem, None, as_block(states))

    def _sample_rows(
        self, problem: CompiledProblem, block: StateBlock, pins: StateBlock | None
    ) -> np.ndarray:
        """The memo's rows of ``block``, the missing ones from one launch.

        That launch pins ``pins`` too; when the memo holds every row,
        ``pins`` are pinned on their own -- exactly once either way.
        """
        misses = self.cache.misses
        rows = self.cache.fetch(
            problem, block, lambda problem, missing: self._launch(problem, pins, missing)
        )
        if self.cache.misses == misses and pins is not None:
            self.ensure_frontier(problem, pins)
        return rows

    def _launch(
        self, problem: CompiledProblem, pins: StateBlock | None, block: StateBlock
    ) -> np.ndarray:
        """Pin ``pins``' frontiers and evaluate ``block``, one delta launch for both.

        Incremental partition: every state of ``block`` whose parent
        frontier is resident -- cached before, or pinned by this call --
        joins the launch after the pinned states, whichever parent it
        has; the rest share one fused full-batch kernel.  A failure
        leaves no pinned frontier half written.
        """
        ctx = self.eval_context
        n, s = problem.num_tasks, problem.num_samples
        token = problem.sample_token
        b = len(block)
        dtype = problem.tensor.dtype
        if n == 0:
            return np.zeros((b, s), dtype)
        assign = validated_assignments(problem, block) if b else None
        reserved: list[bytes] = []
        try:
            pin_slots: list[int] = []
            if pins is not None and len(pins):
                chained, pin_assign, pin_slots = self._pin(problem, pins, reserved)
            edited = (block.dirty[:, 0] >= 0).tolist() if block.dirty.shape[1] else [False] * b
            lineage = [
                i for i, (parent, dirty) in enumerate(zip(block.parent_keys, edited))
                if parent is not None and dirty
            ]
            slots: list[int | None] = [None] * b
            for i, slot in zip(
                lineage, ctx.find_all(token, [block.parent_keys[i] for i in lineage])
            ):
                slots[i] = slot
            delta_at = np.asarray([i for i, slot in enumerate(slots) if slot is not None], int)
            sets, launched = [], []
            if pin_slots:
                sets.append(pins.dirty_sets(chained, n))
                launched.append(pin_assign[chained])
            if len(delta_at):
                sets.append(block.dirty_sets(delta_at, n))
                launched.append(assign[delta_at])
            if launched:
                delta = self._delta_launch(
                    problem,
                    np.concatenate(launched),
                    np.concatenate([sizes for sizes, _ in sets]),
                    np.concatenate([tasks for _, tasks in sets]),
                    pin_slots + [slots[i] for i in delta_at.tolist()],
                    pins=len(pin_slots),
                )
        except BaseException:
            # A reserved slot is resident: never leave one half written.
            for key in reserved:
                ctx.discard(token, key)
            raise
        if len(delta_at) == b:
            return delta if b else np.zeros((0, s), dtype)
        full_at = [i for i, slot in enumerate(slots) if slot is None]
        out = self._makespan_full(problem, assign[full_at])
        if len(delta_at):
            full, out = out, np.empty((b, s), dtype)
            out[delta_at] = delta
            out[full_at] = full
        self.delta_counters["states_full"] += len(full_at)
        self.delta_counters["levels_total"] += len(full_at) * problem.levels.num_levels
        self.delta_counters["rows_total"] += len(full_at) * n
        return out

    def _makespan_full(self, problem: CompiledProblem, assign: np.ndarray) -> np.ndarray:
        """The fused full-batch level kernel (every level, every row) on a
        validated ``(B, N)`` assignment matrix.

        States are independent, so the batch runs in chunks of as many
        states as fit one ``(N+1, chunk*S)`` finish matrix of
        :data:`_FULL_BYTES` (at least one state): the pooled buffers are
        sized by the chunk, never by the batch, and each chunk writes its
        makespans straight into the result.
        """
        b = len(assign)
        n = problem.num_tasks
        s = problem.num_samples
        dtype = problem.tensor.dtype
        if n == 0:
            return np.zeros((b, s), dtype)
        out = np.empty((b, s), dtype)  # fresh: callers may hold on to the result
        chunk = max(1, _FULL_BYTES // ((n + 1) * s * dtype.itemsize))
        for c0 in range(0, b, chunk):
            self._full_chunk(problem, assign[c0 : c0 + chunk], out[c0 : c0 + chunk])
        return out

    def _full_chunk(self, problem: CompiledProblem, assign: np.ndarray, out: np.ndarray) -> None:
        """One chunk of :meth:`_makespan_full`: ``(c, S)`` makespans into ``out``."""
        sched = problem.levels
        n, s = problem.num_tasks, problem.num_samples
        b, dtype = len(assign), out.dtype

        # Fused level kernel over the task-major tensor copy: per level,
        # gather the lane block as contiguous row takes, propagate finish
        # times, and fold the block max into the running makespan -- each
        # block is consumed while still cache-hot instead of being
        # re-read cold in later passes.  lanes[r, b*S + s'] =
        # tensor[assign[b, order[r]], s', order[r]], tasks level-permuted.
        # (LevelSchedule.propagate_permuted is the unfused reference; the
        # test suite asserts both agree bit-for-bit with ScalarBackend.)
        m = b * s
        rows = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        perm_assign = assign.T.take(sched.order, axis=0)  # (N, B)
        idx = perm_assign * n + sched.order[:, None]  # (N, B) row ids
        w = sched.max_width
        finish = self._buf("finish", (n + 1, m), dtype)
        finish[n] = 0.0  # the sentinel row every padded parent slot reads
        lanes = self._buf("lanes", (w, m), dtype)
        buf_a = self._buf("scratch_a", (w, m), dtype)
        buf_b = self._buf("scratch_b", (w, m), dtype)
        makespan = out.reshape(m)
        for lv, ((lo, hi), gather, columns) in enumerate(
            zip(sched.level_bounds, sched.level_parents, sched.level_columns)
        ):
            k = hi - lo
            ln = lanes[:k]
            # Indices come from validated assignments; skip bounds checks.
            np.take(
                rows, idx[lo:hi].reshape(k * b), axis=0,
                out=ln.reshape(k * b, s), mode="clip",
            )
            dst = finish[lo:hi]
            ready = buf_a[:k]
            if gather.shape[1] == 0:
                dst[...] = ln
            elif columns is not None:
                np.take(finish, columns[0], axis=0, out=ready, mode="clip")
                for col in columns[1:]:
                    other = buf_b[:k]
                    np.take(finish, col, axis=0, out=other, mode="clip")
                    np.maximum(ready, other, out=ready)
                np.add(ready, ln, out=dst)
            else:
                # Big fan-in, few tasks: a 3-D gather + max reduction, as
                # many tasks at a time as fit one tile, through the wide
                # gather buffer the delta kernel pools too.
                p = gather.shape[1]
                step = max(1, _TILE_BYTES // (p * m * dtype.itemsize))
                for t0 in range(0, k, step):
                    part = gather[t0 : t0 + step]
                    wide = self._buf("wide", (part.size, m), dtype)
                    np.take(finish, part.reshape(-1), axis=0, out=wide, mode="clip")
                    np.max(wide.reshape(len(part), p, m), axis=1, out=ready[t0 : t0 + len(part)])
                np.add(ready, ln, out=dst)
            if lv == 0:
                dst.max(axis=0, out=makespan)
            else:
                np.maximum(makespan, dst.max(axis=0), out=makespan)

    # Incremental (delta) evaluation ------------------------------------

    def _delta_launch(
        self,
        problem: CompiledProblem,
        assign: np.ndarray,
        sizes: np.ndarray,
        dirty: np.ndarray,
        slots: list[int],
        pins: int = 0,
    ) -> np.ndarray:
        """The delta kernel: one launch for any batch of lineage states.

        State ``j`` (row ``j`` of the validated ``(B, N)`` ``assign``,
        dirty set ``sizes`` / ``dirty`` as :meth:`StateBlock.dirty_sets`
        returns them) differs in its dirty tasks from the frontier in
        slab slot ``slots[j]``; any number of states may share a slot,
        and the slots may all differ.  Work is organized over *(slot,
        child)* pairs -- exactly the finish rows whose value can differ
        from the source frontier's -- so each level is a handful of
        fused flat-index gathers over the affected pairs of the whole
        batch.  ``addr[r, j]`` is the row of the slab matrix that holds
        child ``j``'s finish time in permuted slot ``r``: the source
        frontier's own row until the pair is recomputed, the workspace
        row it is recomputed into afterwards.  Levels run in order and a
        row reads lower levels only, so every gather finds its operands
        in place, unchanged rows are never copied anywhere, and the final
        reduction runs over the sink rows alone.  Every recomputed pair
        applies the identical gather + ``max`` + ``add`` arithmetic to
        the identical operands, in the problem's sample dtype, as the
        full fused kernel, so results are bit-identical (asserted by the
        tests).

        The first ``pins`` states are *pinned*: their ``slots`` are
        frontiers the caller has just copied from each state's parent,
        and every level's recomputed rows of theirs are written back
        there before the next level runs, turning each into its state's
        own frontier.  A later state whose slot is a pin's reads that
        pin's rows as they are recomputed -- a parent is pinned and its
        children evaluated in the same launch.  Returns the fresh
        ``(B - pins, S)`` makespans of the others.
        """
        n = problem.num_tasks
        s = problem.num_samples
        b = len(slots)
        sched = problem.levels
        slab = self.eval_context.slab(problem.sample_token)
        rows, stride = slab.rows, slab.stride
        mask, first, pairs = self._affected_pairs(problem, stride, sizes, dirty)

        # Pass 2: re-propagate the affected pairs, as many children at a
        # time as the workspace has rows for.  ``np.nonzero`` lists a
        # chunk's pairs by slot, hence level by level; pair ``i`` is
        # recomputed into workspace row ``work + i``.
        base = np.asarray(slots, dtype=np.int64) * stride
        slot_column = np.arange(stride)[:, None]
        table = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        lane_rows = assign * n + np.arange(n)  # (B, N) rows of ``table``
        work = slab.workspace_start
        capacity = rows.shape[0] - work
        out = np.empty((b - pins, s), rows.dtype)
        lo_first = sched.level_bounds[first][0]
        c0 = 0
        while c0 < b:
            done = int(pairs[c0 - 1]) if c0 else 0
            c1 = int(np.searchsorted(pairs, done + capacity, side="right"))
            addr = self._buf("delta_addr", (stride, c1 - c0), dtype=np.int64)
            np.add(slot_column, base[c0:c1], out=addr)
            slot, child = np.nonzero(mask[lo_first:n, c0:c1])
            slot += lo_first
            lanes = lane_rows[c0 + child, sched.order[slot]]
            addr[slot, child] = np.arange(work, work + slot.size)
            slab.workspace_touched = max(slab.workspace_touched, slot.size)
            # Pins come first, so they are in this chunk or already written.
            own = np.flatnonzero(child < pins - c0) if c0 < pins else None
            back = None if own is None else (own, base[c0 + child[own]] + slot[own])
            self._delta_levels(sched, first, rows, table, addr, slot, child, lanes, work, back)
            if c1 > pins:
                # Sink-row reduction, each sink read wherever it now lives.
                lo = max(c0, pins)
                part = out[lo - pins : c1 - pins]
                cols = addr[:, lo - c0 :]
                sinks = sched.sink_slots
                np.take(rows, cols[sinks[0]], axis=0, out=part, mode="clip")
                for t in sinks[1:]:
                    np.maximum(part, rows.take(cols[t], axis=0), out=part)
            c0 = c1
        return out

    def _delta_levels(
        self, sched: LevelSchedule, first: int, rows: np.ndarray, table: np.ndarray,
        addr: np.ndarray, slot: np.ndarray, child: np.ndarray, lanes: np.ndarray,
        work: int, back: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        """Recompute one chunk's pairs (sorted by slot) level by level.

        ``back`` lists the pinned states' pairs (ascending) and the
        frontier rows they are written back to, level by level.
        """
        s = rows.shape[1]
        tile = max(1, _TILE_BYTES // (rows.itemsize * s))  # rows per tile
        bufs = (
            self._buf("delta_ready", (tile, s), rows.dtype),
            self._buf("delta_other", (tile, s), rows.dtype),
        )
        ends = np.searchsorted(slot, sched.level_starts[first + 1 :]).tolist()
        own_ends = [0] * len(ends) if back is None else np.searchsorted(back[0], ends).tolist()
        begin = own = 0
        for lv, end, own_end in zip(range(first, sched.num_levels), ends, own_ends):
            if begin < end:
                gather = sched.level_parents[lv]
                src = None
                if gather.shape[1]:
                    # (P, p): the row now holding each source of each pair.
                    level_slots = slot[begin:end] - sched.level_bounds[lv][0]
                    src = addr[gather[level_slots].T, child[begin:end]]
                self._delta_tiles(rows, table, lanes[begin:end], src, work + begin, bufs)
            if own < own_end:
                # The pins' rows of this level, into their frontiers: what
                # their children read from the next level on.
                pairs, frontier_rows = back
                rows[frontier_rows[own:own_end]] = rows[work + pairs[own:own_end]]
            begin, own = end, own_end

    def _affected_pairs(
        self, problem: CompiledProblem, stride: int, sizes: np.ndarray, dirty: np.ndarray
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """Pass 1 of the delta kernel (boolean only): the affected pairs.

        Dirty tasks plus anything with an affected ancestor, closed level
        by level over the whole batch at once.  Returns the ``(stride,
        B)`` mask, the first dirty level and the running pair count by
        child, and counts the work in :attr:`delta_counters`.
        """
        sched = problem.levels
        b = len(sizes)
        mask = self._buf("delta_mask", (stride, b), dtype=bool)
        mask[...] = False
        mask[sched.dirty_slots(dirty), np.repeat(np.arange(b), sizes)] = True
        first = sched.first_dirty_level(dirty)
        for lv in range(first, sched.num_levels):
            lo, hi = sched.level_bounds[lv]
            gather = sched.level_parents[lv]
            if gather.shape[1]:
                mask[lo:hi] |= mask[gather].any(axis=1)
        pairs = np.cumsum(mask.sum(axis=0))
        # (level, child) pairs with recomputed rows.
        runs = np.logical_or.reduceat(mask[: sched.num_tasks], sched.level_starts[:-1])
        child_level_runs = int(np.count_nonzero(runs))

        self.delta_counters["states_incremental"] += b
        self.delta_counters["levels_total"] += b * sched.num_levels
        self.delta_counters["levels_skipped"] += b * sched.num_levels - child_level_runs
        self.delta_counters["rows_total"] += b * problem.num_tasks
        self.delta_counters["rows_recomputed"] += int(pairs[-1])
        return mask, first, pairs

    def _delta_tiles(
        self, rows: np.ndarray, table: np.ndarray, lanes: np.ndarray,
        src: np.ndarray | None, first_row: int, bufs: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Recompute one level's pairs of a delta chunk, in cache-sized tiles.

        Pair ``i`` adds its own task-time lane (row ``lanes[i]`` of
        ``table``) to the max of its parents' finish rows ``src[:, i]``
        (no parents when ``src`` is ``None``) and lands in row
        ``first_row + i`` of ``rows``, using the chunk's tile ``bufs``
        (ready, other).  Indices come from validated assignments and the
        address table, so the takes skip bounds checks.
        """
        ready_buf, other_buf = bufs
        tile, s = ready_buf.shape
        width = 0 if src is None else src.shape[0]
        wide = width > _COLUMN_FANIN_MAX
        step = max(1, tile // width) if wide else tile
        wide_buf = self._buf("wide", (width * step, s), rows.dtype) if wide else None
        for i in range(0, len(lanes), step):
            k = min(step, len(lanes) - i)
            part = rows[first_row + i : first_row + i + k]
            np.take(table, lanes[i : i + k], axis=0, out=part, mode="clip")
            if src is not None:
                ready = ready_buf[:k]
                if wide_buf is not None:
                    # Big fan-in, few pairs: 3-D gather + max reduction.
                    gathered = wide_buf[: width * k]
                    np.take(
                        rows, src[:, i : i + k].reshape(-1), axis=0,
                        out=gathered, mode="clip",
                    )
                    np.max(gathered.reshape(width, k, s), axis=0, out=ready)
                else:
                    np.take(rows, src[0, i : i + k], axis=0, out=ready, mode="clip")
                    for col in src[1:]:
                        other = other_buf[:k]
                        np.take(rows, col[i : i + k], axis=0, out=other, mode="clip")
                        np.maximum(ready, other, out=ready)
                np.add(ready, part, out=part)

    def ensure_frontier(self, problem: CompiledProblem, *states) -> None:
        """Cache the states' finish-time frontiers ahead of their expansion.

        Takes one :class:`StateBlock`, or :class:`PlanState` arguments
        (stacked into one), so the children generated from them can all
        take the delta path.  The search hands its parents to
        :meth:`evaluate_batch` as ``pins`` instead, which does this in
        the launch that evaluates their children.
        """
        block = (
            states[0]
            if len(states) == 1 and isinstance(states[0], StateBlock)
            else StateBlock.from_states(states)
        )
        if len(block):
            self._launch(problem, block, StateBlock(np.empty((0, problem.num_tasks))))

    def _pin(
        self, problem: CompiledProblem, block: StateBlock, reserved: list[bytes]
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Reserve and seed a frontier slot for every state of ``block``.

        Chains stay cheap: a state whose *own* parent frontier is still
        cached gets a copy of it, for the caller's launch to
        delta-propagate in place; the rest are propagated in full here.
        The block is validated before anything is stored; every parent is
        looked up before any frontier is stored, and a store never evicts
        a frontier this call reads or writes: a state that does not fit
        beside them goes unpinned (its children take the full kernel).
        Appends each reserved key to ``reserved``; returns the rows of the
        chained states, the block's validated assignments and the chained
        states' slots.
        """
        ctx = self.eval_context
        n, s = problem.num_tasks, problem.num_samples
        token = problem.sample_token
        assign = validated_assignments(problem, block)
        keys, parent_keys = block.keys, block.parent_keys
        # Key -> row of the last state with that key, in first-seen order.
        pending: dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if not ctx.peek(token, key):
                pending[key] = row
        rows = list(pending.values())
        edited = block.dirty[:, 0] >= 0 if block.dirty.shape[1] else np.zeros(len(block), bool)
        sources = [
            ctx.find(token, parent_keys[row])
            if parent_keys[row] is not None and edited[row] and ctx.peek(token, parent_keys[row])
            else None
            for row in rows
        ]
        keep = set(pending)
        keep.update(parent_keys[row] for row, src in zip(rows, sources) if src is not None)
        sched = problem.levels
        order = sched.order
        table = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        w, dtype = sched.max_width, table.dtype
        chained: list[int] = []
        slots: list[int] = []
        for row, src in zip(rows, sources):
            slot = ctx.reserve(token, keys[row], n, s, dtype, keep)
            if slot is None:
                continue
            reserved.append(keys[row])
            slab = ctx.slab(token)
            if src is None:
                # Propagated in full through the full kernel's pooled
                # buffers (no launch holds them yet); indices come from
                # validated assignments, so the take skips bounds checks.
                lanes = self._buf("lanes", (n, s), dtype)
                np.take(table, assign[row][order] * n + order, axis=0, out=lanes, mode="clip")
                scratch = (
                    self._buf("scratch_a", (w, s), dtype), self._buf("scratch_b", (w, s), dtype)
                )
                sched.propagate_permuted(lanes, finish=slab.frontier(slot), scratch=scratch)
            else:
                np.copyto(slab.frontier(slot), slab.frontier(src))
                chained.append(row)
                slots.append(slot)
        return np.asarray(chained, dtype=np.intp), assign, slots

    def delta_stats(self) -> dict[str, int]:
        """A copy of the monotone incremental-work counters."""
        return dict(self.delta_counters)

    def counters_snapshot(self) -> dict[str, int]:
        return {
            "makespan_hits": self.cache.hits,
            "makespan_misses": self.cache.misses,
            "frontier_hits": self.eval_context.hits,
            "frontier_misses": self.eval_context.misses,
            **self.delta_counters,
        }

    def cache_stats(self) -> dict[str, dict]:
        """``makespan`` and ``frontier`` (counters plus ``nbytes``; the
        frontier's also the screening problems'), ``delta``."""
        stats = {}
        for key, memo in (("makespan", self.cache), ("frontier", self.eval_context)):
            stats[key] = memo.counters()
            stats[key]["nbytes"] = memo.nbytes()
        stats["frontier"].update(self.eval_context.screen_stats())
        stats["delta"] = self.delta_stats()
        return stats

    def forget(self, token: int) -> None:
        """Drop ``token``'s makespan rows, frontiers and screening problem."""
        self.cache.forget(token)
        self.eval_context.forget(token)

    def release_buffers(self) -> None:
        """Drop the makespan memo, the frontiers and the pooled scratch arrays."""
        self.cache.clear()
        self.eval_context.clear()
        self.pool.clear()

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """Prefix-fidelity probabilities via the fused full kernel.

        Screening problems carry fresh sample tokens, so their states
        would never find frontiers anyway; calling the full kernel
        directly keeps the frontier and delta counters attributable to
        full-fidelity work.
        """
        sp = self.eval_context.screen_problem(problem, prefix)
        makespans = self._makespan_full(sp, validated_assignments(sp, states))
        return np.mean(makespans <= np.float64(sp.deadline), axis=1)


class ScalarBackend(EvaluationBackend):
    """The single-thread CPU reference: same math, pure-Python loops.

    Deliberately un-vectorized -- this is the baseline of the paper's
    GPU-vs-CPU speedup measurements, and the numbers it produces are
    identical to :class:`VectorizedBackend` on the same problem: the
    same IEEE operations in the problem's sample dtype, and the same
    :func:`validated_assignments` checks.
    """

    name = "cpu"

    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        assignments = validated_assignments(problem, states)
        n = problem.num_tasks
        s = problem.num_samples
        tensor = problem.tensor
        # Scalar adds in the samples' own precision, as the kernels do.
        zero = tensor.dtype.type(0.0)
        out = np.empty((len(assignments), s), dtype=tensor.dtype)
        for b, assign in enumerate(assignments.tolist()):
            for sample in range(s):
                finish = [zero] * n
                best = zero
                for i, parents in enumerate(problem.parent_indices):
                    ready = zero
                    for p in parents:
                        if finish[p] > ready:
                            ready = finish[p]
                    f = ready + tensor[assign[i], sample, i]
                    finish[i] = f
                    if f > best:
                        best = f
                out[b, sample] = best
        return out


#: The engine's backend choices (``Deco(backend=)``, ``repro schedule`` /
#: ``submit --backend``, a service payload's ``backend``).
#: :class:`ScalarBackend` is not one: it is built directly, as the CPU
#: baseline of ``repro run speedup`` and the tests' referee.
BACKEND_NAMES = ("gpu", "analytic")


def get_backend(name: str) -> EvaluationBackend:
    """Backend factory: ``"gpu"`` (vectorized Monte Carlo) or
    ``"analytic"`` (moment propagation, no sampling)."""
    if name == "gpu":
        return VectorizedBackend()
    if name == "analytic":
        # Imported lazily: analytic_backend itself imports this module.
        from repro.solver.analytic_backend import AnalyticBackend

        return AnalyticBackend()
    raise SolverError(f"unknown backend {name!r}; choose from {'|'.join(BACKEND_NAMES)}")
