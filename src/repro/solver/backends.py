"""State-evaluation backends: the compiled probabilistic IR.

The paper evaluates each searched state with Monte Carlo inference over
the probabilistic IR, accelerated on a GPU: *one thread per Monte Carlo
iteration, one thread block per state* (Section 5.2-5.3).  cupy/numba
are unavailable in this environment, so the GPU role is played by a
**vectorized NumPy backend** with the identical parallel decomposition:

* the sampled task times are stored once per problem, task-major
  ``(K types, N tasks, S realizations)`` (the GPU's device-resident
  data): each (type, task) row is a contiguous S-sample run, so lane
  gathering is a row ``take`` driven by an ``(N, B)`` index matrix
  (coalesced reads);
* evaluating a batch of B states propagates finish times through the
  DAG in **level-parallel** order: :class:`~repro.solver.levels.LevelSchedule`
  precomputes the topological levels, each level's parent gather and
  a level-contiguous task permutation at compile time; the backend's
  kernel gathers a chunk of states' lanes into the finish matrix in
  one ``take``, and :meth:`~repro.solver.levels.LevelSchedule.propagate`
  advances it with gather + ``max`` reductions -- D (depth) Python
  iterations instead of N (tasks), exactly the wavefront a CUDA kernel
  would launch per level -- before the makespan is reduced over the
  sink rows alone.  Like a thread block's, a chunk's working set is
  fixed (:data:`_FULL_BYTES`), whatever the batch size;
* the deadline probability is a mean over the S axis (a block-level
  reduction in the CUDA version).

The vectorized backend owns its evaluation state, as the paper's kernel
owns its device buffers: a :class:`~repro.solver.cache.MakespanCache`
that memoizes per-state makespan rows keyed by ``(sample_token, state
key)``, so deadline sweeps over :meth:`CompiledProblem.with_deadline`
derivations (same tensor, different feasibility test) reuse samples
instead of recomputing them; tier 1's prefix rows are memoized the same
way (:class:`~repro.solver.cache.EvalContext`).  As on the paper's GPU,
one launch takes all the states of a search iteration, each propagated
in full.

The **scalar backend** computes the same quantities with pure-Python
loops -- the single-thread CPU baseline of the paper's speedup numbers.
Both backends are bit-identical on the same problem (asserted in the
test suite) and statistically consistent with the WLog interpreter's
Algorithm-1 evaluation.
"""

from __future__ import annotations

import abc
import dataclasses
import itertools
import math
from dataclasses import InitVar, dataclass

import numpy as np

from repro.common.errors import SolverError, ValidationError
from repro.common.units import SECONDS_PER_HOUR
from repro.cloud.instance_types import Catalog
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.solver.cache import EvalContext, MakespanCache, ScratchPool
from repro.solver.levels import LevelSchedule, MaxJoin, workflow_layout
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


#: The full kernel runs a batch in chunks of as many states as fit one
#: ``(N+1, chunk*S)`` finish matrix of this many bytes, so its pooled
#: buffers (finish, scratch) do not grow with the batch: two
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
    #: (K, S, N) sampled task times.  Any array is accepted; the problem
    #: keeps a read-only view of :attr:`tensor_taskmajor`.
    tensor: np.ndarray
    prices: np.ndarray         # (K,) $/hour in the catalog's default region
    parent_indices: tuple[tuple[int, ...], ...]  # per task, topological order
    deadline: float            # seconds
    required_probability: float  # P(makespan <= deadline) must reach this
    levels: LevelSchedule | None = None  # level-parallel layout (built if absent)
    #: Fault expansion (set by :meth:`with_faults`): the declared fault
    #: model + recovery policy whose analytic expectation inflated the
    #: tensor, and the minimum plan success probability (0.0 = no
    #: reliability constraint).
    faults: FaultModel | None = None
    recovery: RecoveryPolicy | None = None
    reliability_required: float = 0.0
    #: Sample-tensor generation token (see ``_SAMPLE_TOKENS``).  ``None``
    #: means "this tensor is fresh": ``__post_init__`` stamps the next
    #: monotone value.  Derivations that share the tensor keep the token;
    #: derivations that rewrite it pass ``None``.
    sample_token: int | None = None
    #: The one stored copy of the samples: a read-only float32 ``(K, N, S)``
    #: array whose row ``[k, i]`` holds task i's samples contiguously, so
    #: the backend's lane gather is K*N contiguous row copies.
    tensor_taskmajor: np.ndarray = dataclasses.field(init=False, repr=False)
    #: ``(K, N)`` Eq.-1 cost rates, ``mean_times * prices[:, None]``: one
    #: gather prices an assignment.  Not a field: ``__post_init__`` builds
    #: it when none is passed and stores it on the instance, where
    #: ``dataclasses.replace`` reads an init-only value back -- so a
    #: derivation that keeps ``mean_times`` and ``prices`` carries the
    #: same array, and one that rewrites them passes ``cost_rates=None``.
    cost_rates: InitVar[np.ndarray | None] = None

    def __post_init__(self, cost_rates):
        # The samples' stored precision and layout: float32, task-major,
        # read-only.  Fresh draws arrive in that form (``sample_tensor``
        # rounds its float64 draws into it) and so does every derivation
        # that keeps the samples; they are kept as they are.  Fault
        # inflation and hand-built tensors run in float64 and are
        # rounded once here.  Every array of sampled times (kernel
        # buffers, memo rows) follows ``tensor.dtype``, so the Monte
        # Carlo kernel moves half the bytes.  Deadline comparisons,
        # means, costs and tier 0's moments stay float64.
        taskmajor = self.tensor.transpose(0, 2, 1)
        if (
            taskmajor.dtype != np.float32
            or taskmajor.flags.writeable
            or not taskmajor.flags.c_contiguous
        ):
            taskmajor = np.ascontiguousarray(taskmajor, dtype=np.float32)
            taskmajor.setflags(write=False)
            object.__setattr__(self, "tensor", taskmajor.transpose(0, 2, 1))
        object.__setattr__(self, "tensor_taskmajor", taskmajor)
        if self.levels is None:
            object.__setattr__(
                self, "levels", LevelSchedule.from_parent_indices(self.parent_indices)
            )
        if self.sample_token is None:
            object.__setattr__(self, "sample_token", next(_SAMPLE_TOKENS))
        if cost_rates is None:
            cost_rates = self.mean_times * self.prices[:, None]
            cost_rates.setflags(write=False)
        object.__setattr__(self, "cost_rates", cost_rates)

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
        """Eq. 1 cost for a ``(B, N)`` assignment matrix: one gather of
        :attr:`cost_rates`, indexed by the matrix as it comes (a widening
        copy of an int16 beam costs as much as the gather)."""
        per_task = self.cost_rates[np.asarray(assignments), np.arange(self.num_tasks)]
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
        return dataclasses.replace(
            self,
            deadline=float(deadline),
            required_probability=(
                self.required_probability if percentile is None else percentile / 100.0
            ),
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
        return dataclasses.replace(self, tensor=self.tensor[:, :prefix, :], sample_token=None)

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
        return dataclasses.replace(
            self,
            mean_times=faults.inflate(self.mean_times, recovery),
            cost_rates=None,
            tensor=faults.inflate(self.tensor_taskmajor, recovery).transpose(0, 2, 1),
            faults=faults,
            recovery=recovery,
            reliability_required=(
                0.0 if reliability_percentile is None else reliability_percentile / 100.0
            ),
            sample_token=None,
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

    A backend owns whatever evaluation state it keeps (memos, scratch
    buffers) and reports it through :meth:`counters_snapshot` and
    :meth:`cache_stats`; :meth:`forget` drops one sample token's share
    of it and :meth:`release_buffers` all of it.  The base class keeps
    none.
    """

    name: str = "abstract"
    #: The ``source`` recorded in this backend's evaluations.
    source: str = "mc"
    #: The scratch pool a tier-0 evaluator may share (``None``: none).
    pool: ScratchPool | None = None

    @abc.abstractmethod
    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, S)`` per-realization makespans for B states."""

    def _sample_rows(self, problem: CompiledProblem, block: StateBlock) -> np.ndarray:
        """The ``(B, S)`` makespans :meth:`evaluate_batch` reduces."""
        return self.makespan_samples(problem, block)

    def evaluate_batch(self, problem: CompiledProblem, states) -> BatchEval:
        """Full evaluation: Eq. 1 cost + P(makespan <= D) per state.

        Cost, probability and mean makespan are all computed as single
        array reductions over the batch (no per-state Python arithmetic).
        """
        block = as_block(states)
        if not len(block):
            return BatchEval.empty(0)
        makespans = self._sample_rows(problem, block)
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

    def counters_snapshot(self) -> dict[str, int]:
        """Flat monotone work counters (cache hits/misses).

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
        draws for every state (a strict prefix of the full tensor).  The
        base class memoizes nothing; :class:`VectorizedBackend` keeps the
        prefix rows.
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

    The kernel works in *permuted task-major* layout: one flat-index
    ``take`` gathers a chunk's lanes into its finish matrix with tasks
    already in level-contiguous order, and the schedule's
    :meth:`~repro.solver.levels.LevelSchedule.propagate` advances it in
    place.  Large intermediates (finish matrix, level scratch) come
    from a small per-backend buffer pool, sized by the
    kernel's byte budgets rather than the batch -- reallocating
    multi-hundred-KB arrays every evaluation costs page faults that
    dominate the kernel at search-sized batches.  The pool makes the
    backend non-reentrant (one evaluation at a time per instance),
    matching a CUDA stream.

    The backend owns its memos: ``cache`` (the makespan rows
    :meth:`evaluate_batch` reduces) and ``eval_context`` (tier 1's
    screening problems and their prefix rows) are built here unless the
    caller passes a context to share.
    """

    name = "gpu"

    def __init__(self, eval_context: EvalContext | None = None):
        self.cache = MakespanCache()
        self.eval_context = eval_context if eval_context is not None else EvalContext()
        #: Shared grow-only scratch pool (see
        #: :class:`~repro.solver.cache.ScratchPool`); the analytic
        #: screening tier reuses the same pool during a search.
        self.pool = ScratchPool()

    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, S)`` makespans of ``states`` from the fused kernel (no memo involved)."""
        return self._makespan_full(problem, validated_assignments(problem, states))

    def _sample_rows(self, problem: CompiledProblem, block: StateBlock) -> np.ndarray:
        """The memo's rows of ``block``, the missing ones from one launch."""
        return self.cache.fetch(problem, block, self.makespan_samples)

    def _makespan_full(self, problem: CompiledProblem, assign: np.ndarray) -> np.ndarray:
        """The level kernel (every level, every row) on a validated
        ``(B, N)`` assignment matrix.

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
        b = len(assign)
        m = b * s
        # One gather of every lane into the finish matrix, tasks
        # level-permuted: finish[r, b*S + s'] =
        # tensor[assign[b, order[r]], s', order[r]].
        rows = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        idx = assign.T.take(sched.order, axis=0) * n + sched.order[:, None]  # (N, B) row ids
        finish = self.pool.take("finish", (n + 1, m), out.dtype)
        # Indices come from validated assignments; skip bounds checks.
        np.take(rows, idx.reshape(n * b), axis=0, out=finish[:n].reshape(n * b, s), mode="clip")
        finish[n] = 0.0
        sched.propagate(finish, MaxJoin(self.pool, finish, sched.max_width))
        sched.sink_max(finish, out.reshape(m))

    def ensure_frontier(self, problem: CompiledProblem, *states) -> None:
        """A no-op: every state is propagated in full, so there is nothing
        to prepare.  It stays until the benchmark's tracer stops wrapping
        it by name (ROADMAP item 16(b))."""

    def counters_snapshot(self) -> dict[str, int]:
        return {"makespan_hits": self.cache.hits, "makespan_misses": self.cache.misses}

    def cache_stats(self) -> dict[str, dict]:
        """``makespan`` (hit/miss/entry counters plus ``nbytes``, and the
        same four of tier 1's prefix rows as ``prefix_*``) and ``screen``
        (tier 1's screening problems: ``entries``, ``nbytes``)."""
        prefix = self.eval_context.rows
        makespan = {
            **self.cache.counters(),
            "nbytes": self.cache.nbytes(),
            **{f"prefix_{key}": value for key, value in prefix.counters().items()},
            "prefix_nbytes": prefix.nbytes(),
        }
        return {"makespan": makespan, "screen": self.eval_context.stats()}

    def forget(self, token: int) -> None:
        """Drop ``token``'s makespan rows, screening problem and prefix rows."""
        self.cache.forget(token)
        self.eval_context.forget(token)

    def release_buffers(self) -> None:
        """Drop the makespan memo, tier 1's memos and the pooled scratch arrays."""
        self.cache.clear()
        self.eval_context.clear()
        self.pool.clear()

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """Prefix-fidelity probabilities from the memoized screening problem.

        Its rows come through ``eval_context.rows``, keyed by
        ``problem``'s own token; the misses are one kernel launch on the
        screening problem, and the probability is taken against its
        deadline.
        """
        sp = self.eval_context.screen_problem(problem, prefix)
        makespans = self.eval_context.rows.fetch(
            problem, states, lambda _, missing: self.makespan_samples(sp, missing)
        )
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
