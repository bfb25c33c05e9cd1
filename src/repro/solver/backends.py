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
  precomputes the topological levels, a padded parent-index matrix
  (``-1`` sentinel) and a level-contiguous task permutation at compile
  time; the backend's fused kernel then, per level, gathers the lane
  block, advances finish times with gather + ``max`` reductions over
  all ``B*S`` lanes, and folds the block max into the running makespan
  while the block is cache-hot -- D (depth) Python iterations instead
  of N (tasks), exactly the wavefront a CUDA kernel would launch per
  level;
* the deadline probability is a mean over the S axis (a block-level
  reduction in the CUDA version).

Backends optionally carry a :class:`~repro.solver.cache.MakespanCache`
that memoizes per-state makespan rows keyed by ``(sample_token, state
key)``, so deadline sweeps over :meth:`CompiledProblem.with_deadline`
derivations (same tensor, different feasibility test) reuse samples
instead of recomputing them, and a
:class:`~repro.solver.cache.EvalContext` of per-state finish-time
frontiers that powers **incremental (delta) evaluation**: a search
child that differs from its parent in a known dirty task set re-uses
the parent's cached frontier below the first dirty level and
recomputes only the affected suffix rows -- bit-identical to a full
propagation, at a fraction of the work (see
:meth:`VectorizedBackend.ensure_frontier`).

The **scalar backend** computes the same quantities with pure-Python
loops -- the single-thread CPU baseline of the paper's speedup numbers.
Both backends are bit-identical on the same problem (asserted in the
test suite) and statistically consistent with the WLog interpreter's
Algorithm-1 evaluation.  The pre-level-parallel per-task loop is kept
as ``VectorizedBackend(level_parallel=False)`` so the speedup of the
fast path stays measurable (see ``repro.bench.perf``).
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SolverError
from repro.common.units import SECONDS_PER_HOUR
from repro.cloud.instance_types import Catalog
from repro.faults.model import FaultModel
from repro.faults.recovery import RecoveryPolicy
from repro.solver.cache import EvalContext, MakespanCache, ScratchPool
from repro.solver.levels import _COLUMN_FANIN_MAX, LevelSchedule, workflow_layout
from repro.solver.state import PlanState, StateEval
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
    tensor: np.ndarray         # (K, S, N) sampled task times
    prices: np.ndarray         # (K,) $/hour in the optimization region
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
        region: str | None = None,
    ) -> "CompiledProblem":
        if deadline <= 0:
            raise SolverError(f"deadline must be > 0, got {deadline}")
        if not 0 < percentile <= 100:
            raise SolverError(f"percentile must be in (0, 100], got {percentile}")
        model = runtime_model or RuntimeModel(catalog)
        tensor = model.sample_tensor(workflow, num_samples, seed=seed)
        mean_times = model.mean_matrix(workflow)
        prices = np.asarray(
            [catalog.price(name, region) for name in catalog.type_names], dtype=float
        )
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
        """
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
        tensor = faults.inflate(self.tensor, recovery)
        tensor.setflags(write=False)
        return CompiledProblem(
            workflow=self.workflow,
            catalog=self.catalog,
            mean_times=faults.inflate(self.mean_times, recovery),
            tensor=tensor,
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


class EvaluationBackend(abc.ABC):
    """Evaluates batches of states against a compiled problem.

    ``cache`` (optional) memoizes per-state makespan rows across calls
    and across ``with_deadline``-derived problems; hit/miss counters
    live on the cache object.  ``eval_context`` (optional) holds the
    per-state finish-time frontiers and screening-problem memo the
    incremental evaluator needs; backends that cannot exploit it simply
    carry it.
    """

    name: str = "abstract"

    def __init__(
        self,
        cache: MakespanCache | None = None,
        eval_context: EvalContext | None = None,
    ):
        self.cache = cache
        self.eval_context = eval_context

    @abc.abstractmethod
    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, S)`` per-realization makespans for B states."""

    def cached_makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """Like :meth:`makespan_samples`, consulting the cache if present."""
        states = list(states)
        if self.cache is None:
            return self.makespan_samples(problem, states)
        return self.cache.fetch(problem, states, self.makespan_samples)

    def evaluate_batch(self, problem: CompiledProblem, states) -> list[StateEval]:
        """Full evaluation: Eq. 1 cost + P(makespan <= D) per state.

        Cost, probability and mean makespan are all computed as single
        array reductions over the batch (no per-state Python arithmetic).
        """
        states = list(states)
        if not states:
            return []
        makespans = self.cached_makespan_samples(problem, states)
        assign = np.stack([st.assignment for st in states])
        costs = problem.expected_cost_batch(assign)
        probs = np.mean(makespans <= problem.deadline, axis=1)
        means = makespans.mean(axis=1)
        threshold = problem.required_probability - 1e-12
        # The reliability constraint is analytic and assignment-free
        # (per-task success ** N), so it gates the whole problem at once.
        reliable = (
            problem.plan_success_probability >= problem.reliability_required - 1e-12
        )
        return [
            StateEval(
                cost=float(costs[b]),
                probability=float(probs[b]),
                feasible=bool(probs[b] >= threshold) and reliable,
                mean_makespan=float(means[b]),
            )
            for b in range(len(states))
        ]

    def evaluate(self, problem: CompiledProblem, state: PlanState) -> StateEval:
        return self.evaluate_batch(problem, [state])[0]

    def counters_snapshot(self) -> dict[str, int]:
        """Flat monotone work counters, for cross-process aggregation.

        Beam-shard workers diff this snapshot around each job and ship
        the delta back, so a sharded solve can report cache and
        delta-propagation totals comparable to a serial one's
        (``SearchResult`` / ``Deco.cache_stats``).  Only monotone
        counters belong here -- sizes like ``entries`` do not aggregate
        across processes.
        """
        snap: dict[str, int] = {}
        if self.cache is not None:
            c = self.cache.counters()
            snap["makespan_hits"] = c["hits"]
            snap["makespan_misses"] = c["misses"]
        if self.eval_context is not None:
            c = self.eval_context.counters()
            snap["frontier_hits"] = c["hits"]
            snap["frontier_misses"] = c["misses"]
        for key, value in (getattr(self, "delta_counters", None) or {}).items():
            snap[key] = value
        return snap

    def screen_problem(self, problem: CompiledProblem, prefix: int) -> CompiledProblem:
        """The (memoized, when possible) sample-prefix screening problem."""
        if self.eval_context is not None:
            return self.eval_context.screen_problem(problem, prefix)
        return problem.with_sample_prefix(prefix)

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """``(B,)`` deadline probabilities from the first ``prefix`` samples.

        The cheap first stage of two-stage fidelity screening: same
        draws for every state (a strict prefix of the full tensor), no
        makespan-cache involvement -- screened states are evaluated at
        most once at this fidelity.
        """
        sp = self.screen_problem(problem, prefix)
        makespans = self.makespan_samples(sp, list(states))
        return np.mean(makespans <= sp.deadline, axis=1)


def validated_assignments(problem: CompiledProblem, states) -> np.ndarray:
    """Stack states into a validated ``(B, N)`` int64 assignment matrix.

    Shared by every array backend (vectorized MC and analytic): raises
    :class:`SolverError` when a state's length or type indices do not
    fit the compiled problem, so the kernels can skip bounds checks.
    """
    assign = np.stack([st.assignment for st in states]).astype(np.int64)  # (B, N)
    if assign.shape[1] != problem.num_tasks:
        raise SolverError(
            f"state has {assign.shape[1]} tasks, problem has {problem.num_tasks}"
        )
    if assign.min(initial=0) < 0:
        raise SolverError("state references a negative type index")
    if assign.max(initial=0) >= problem.num_types:
        raise SolverError("state references a type index outside the catalog")
    return assign


def _propagate_taskloop(lanes: np.ndarray, parent_indices) -> np.ndarray:
    """Pre-level-parallel reference: one Python iteration per task.

    Kept as the "before" of the level-parallel speedup measurement
    (``repro.bench.perf.solver_speedup``); numerically identical.
    """
    finish = np.empty_like(lanes)
    for i, parents in enumerate(parent_indices):
        if parents:
            ready = finish[:, parents[0]]
            for p in parents[1:]:
                ready = np.maximum(ready, finish[:, p])
            finish[:, i] = ready + lanes[:, i]
        else:
            finish[:, i] = lanes[:, i]
    return finish


class VectorizedBackend(EvaluationBackend):
    """The "GPU" backend: batched array evaluation (see module docstring).

    The fast path works in *permuted task-major* layout: one flat-index
    ``take`` gathers the ``(N, B*S)`` lane matrix with tasks already in
    level-contiguous order, then :meth:`LevelSchedule.propagate_permuted`
    advances one level per step.  Large intermediates (index matrix,
    lane matrix, finish matrix, level scratch) come from a small
    per-backend buffer pool -- reallocating multi-hundred-KB arrays
    every evaluation costs page faults that dominate the kernel at
    search-sized batches.  The pool makes the backend non-reentrant
    (one evaluation at a time per instance), matching a CUDA stream.

    ``level_parallel=False`` selects the pre-optimization per-task
    propagation loop -- same numbers, N instead of D Python iterations --
    used by the benchmarks as the speedup baseline of the fast path.

    With an ``eval_context``, :meth:`makespan_samples` takes the
    **delta-propagation** path for every state whose parent frontier is
    cached: copy the parent's finish rows, recompute only the dirty
    tasks' rows and their (transitive) descendants level by level, and
    reduce the makespan over the sink rows alone.  Every recomputed row
    applies the identical gather + ``max`` + ``add`` arithmetic to the
    identical float64 operands, so the result is bit-identical to the
    full fused kernel (asserted in the test suite).  ``delta_counters``
    tracks how much work the short-circuit saved.
    """

    name = "gpu"

    _POOL_MAX = 32  # distinct (name, dtype) buffers kept alive

    def __init__(
        self,
        cache: MakespanCache | None = None,
        level_parallel: bool = True,
        eval_context: EvalContext | None = None,
        pool: ScratchPool | None = None,
    ):
        super().__init__(cache=cache, eval_context=eval_context)
        self.level_parallel = bool(level_parallel)
        #: Shared grow-only scratch pool (see
        #: :class:`~repro.solver.cache.ScratchPool`); the analytic
        #: screening tier reuses the same pool during a search.
        self.pool = pool if pool is not None else ScratchPool(self._POOL_MAX)
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

    def _buf(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A pooled scratch view (contents undefined; see ScratchPool)."""
        return self.pool.take(name, shape, dtype)

    def _validated_assignments(self, problem: CompiledProblem, states) -> np.ndarray:
        return validated_assignments(problem, states)

    def makespan_samples(
        self, problem: CompiledProblem, states, incremental: bool = True
    ) -> np.ndarray:
        states = list(states)
        b = len(states)
        n = problem.num_tasks
        s = problem.num_samples
        if not self.level_parallel:
            # Pre-level-parallel reference path, kept measurable.
            assign = self._validated_assignments(problem, states)
            times = problem.tensor[assign, :, np.arange(n)[None, :]]  # (B, N, S)
            lanes = times.transpose(0, 2, 1).reshape(b * s, n)  # (B*S, N)
            finish = _propagate_taskloop(lanes, problem.parent_indices)
            return finish.max(axis=1).reshape(b, s)
        if n == 0:
            return np.zeros((b, s))

        ctx = self.eval_context
        if not incremental or ctx is None:
            return self._makespan_full(problem, states)

        # Incremental partition: states whose parent frontier is cached
        # take the delta path -- grouped by parent, so siblings share
        # one batched sparse kernel -- and the rest share one fused
        # full-batch kernel.
        out = np.empty((b, s))
        full_states: list[PlanState] = []
        full_at: list[int] = []
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for i, st in enumerate(states):
            frontier = None
            if st.parent_key is not None and st.dirty:
                frontier = ctx.get(problem.sample_token, st.parent_key)
            if frontier is None:
                full_states.append(st)
                full_at.append(i)
            else:
                groups.setdefault(st.parent_key, (frontier, []))[1].append(i)
        for frontier, idxs in groups.values():
            out[np.asarray(idxs)] = self._makespan_delta_group(
                problem, [states[i] for i in idxs], frontier
            )
        if full_states:
            out[np.asarray(full_at)] = self._makespan_full(problem, full_states)
            sched = problem.levels
            self.delta_counters["states_full"] += len(full_states)
            self.delta_counters["levels_total"] += len(full_states) * sched.num_levels
            self.delta_counters["rows_total"] += len(full_states) * n
        return out

    def _makespan_full(self, problem: CompiledProblem, states) -> np.ndarray:
        """The fused full-batch level kernel (every level, every row)."""
        b = len(states)
        n = problem.num_tasks
        s = problem.num_samples
        assign = self._validated_assignments(problem, states)
        sched = problem.levels

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
        finish = self._buf("finish", (n + 1, m))
        finish[n] = 0.0  # the sentinel row every padded parent slot reads
        lanes = self._buf("lanes", (w, m))
        buf_a = self._buf("scratch_a", (w, m))
        buf_b = self._buf("scratch_b", (w, m))
        out = np.empty((b, s))  # fresh: callers may hold on to the result
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
            if gather.shape[1] == 0:
                dst[...] = ln
            elif columns is not None:
                ready = buf_a[:k]
                np.take(finish, columns[0], axis=0, out=ready, mode="clip")
                for col in columns[1:]:
                    other = buf_b[:k]
                    np.take(finish, col, axis=0, out=other, mode="clip")
                    np.maximum(ready, other, out=ready)
                np.add(ready, ln, out=dst)
            else:
                # Big fan-in, few tasks: one 3-D gather + max reduction.
                np.add(finish[gather].max(axis=1), ln, out=dst)
            if lv == 0:
                dst.max(axis=0, out=makespan)
            else:
                np.maximum(makespan, dst.max(axis=0), out=makespan)
        return out

    # Incremental (delta) evaluation ------------------------------------

    def _makespan_delta_group(
        self,
        problem: CompiledProblem,
        states: list[PlanState],
        parent_frontier: np.ndarray,
    ) -> np.ndarray:
        """``(B', S)`` makespans for siblings of one cached parent frontier.

        The batched delta kernel: all B' states share ``parent_frontier``
        (their common parent's permuted ``(N, S)`` finish matrix) and
        each differs in its own dirty task set.  Work is organized over
        *(slot, child)* pairs -- exactly the finish rows whose value can
        differ from the parent's -- so each level is a handful of fused
        flat-index gathers over all affected pairs at once, instead of a
        Python loop per child.  Gather sources read the shared parent
        frontier directly, with a sparse fix-up for the (few) sources a
        child has itself recomputed, so unchanged rows are never copied
        anywhere; the final reduction runs over the sink rows alone.
        Every recomputed pair applies the identical gather + ``max`` +
        ``add`` arithmetic to the identical float64 operands as the full
        fused kernel, so results are bit-identical (asserted by the
        tests).
        """
        n = problem.num_tasks
        s = problem.num_samples
        bp = len(states)
        sched = problem.levels
        assign = self._validated_assignments(problem, states)  # (B', N)

        # Pass 1 (boolean only): per-child affected masks, propagated
        # level by level across the whole sibling batch at once.  After
        # the loop ``mask[slot, child]`` marks every recomputed pair.
        mask = np.zeros((n + 1, bp), dtype=bool)
        first = sched.num_levels
        for j, st in enumerate(states):
            d = np.asarray(st.dirty, dtype=np.int64)
            if d.size == 0 or d.min() < 0 or d.max() >= n:
                raise SolverError(
                    f"dirty task set {st.dirty!r} out of range for {n} tasks"
                )
            mask[sched.rank[d], j] = True
            first = min(first, int(sched.depth[d].min()))
        plan: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        child_level_runs = 0  # (level, child) pairs with recomputed rows
        for lv in range(first, sched.num_levels):
            lo, hi = sched.level_bounds[lv]
            gather = sched.level_parents[lv]
            sub = mask[lo:hi]
            aff = sub | mask[gather].any(axis=1) if gather.shape[1] else sub
            rows, childs = np.nonzero(aff)
            if rows.size == 0:
                continue
            mask[lo + rows, childs] = True
            child_level_runs += int(np.unique(childs).size)
            plan.append((lo, gather, rows, childs))

        # The parent frontier with the zero sentinel row appended (one
        # contiguous copy per sibling group, amortized over B' states);
        # ``buf`` holds ONLY the recomputed pairs -- every other entry
        # is stale scratch that is never read.
        parent_ext = self._buf("delta_parent", (n + 1, s))
        np.copyto(parent_ext[:n], parent_frontier)
        parent_ext[n] = 0.0
        buf = self._buf("delta_group", ((n + 1) * bp, s))
        buf3 = buf.reshape(n + 1, bp, s)

        # Pass 2: re-propagate the affected pairs.  Flat row index into
        # ``buf`` is ``slot * B' + child``; lanes, gathers and scatters
        # all run over a level's whole pair list in one call.  Sources
        # come from the shared parent rows, sparsely overridden where
        # the reading child recomputed that source at an earlier level
        # (pass 2 runs in level order, so those pairs are already
        # written by the time they are read).
        rows_matrix = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        recomputed = 0
        for lo, gather, rows, childs in plan:
            recomputed += int(rows.size)
            slots = lo + rows
            tasks = sched.order[slots]
            lanes = rows_matrix.take(assign[childs, tasks] * n + tasks, axis=0)  # (p, S)
            width = gather.shape[1]
            if width == 0:
                vals = lanes
            elif width <= _COLUMN_FANIN_MAX:
                src = gather[rows]  # (p, P) parent slots
                ready: np.ndarray | None = None
                for c in range(width):
                    col_slots = src[:, c]
                    rec = mask[col_slots, childs]
                    # Bulk-read from whichever store holds the majority
                    # of this column's sources, sparse-fix the rest --
                    # dense suffix regions read mostly recomputed pairs,
                    # sparse prefixes mostly shared parent rows.
                    if np.count_nonzero(rec) * 2 > rec.size:
                        col = buf.take(col_slots * bp + childs, axis=0)  # (p, S)
                        sel = np.nonzero(~rec)[0]
                        if sel.size:
                            col[sel] = parent_ext.take(col_slots[sel], axis=0)
                    else:
                        col = parent_ext.take(col_slots, axis=0)  # (p, S)
                        sel = np.nonzero(rec)[0]
                        if sel.size:
                            col[sel] = buf.take(
                                col_slots[sel] * bp + childs[sel], axis=0
                            )
                    if ready is None:
                        ready = col
                    else:
                        np.maximum(ready, col, out=ready)
                np.add(ready, lanes, out=lanes)
                vals = lanes
            else:
                # Big fan-in, few rows: one 3-D gather + max reduction.
                src = gather[rows]  # (p, P)
                rec = mask[src, childs[:, None]]
                if np.count_nonzero(rec) * 2 > rec.size:
                    gathered = buf.take(
                        (src * bp + childs[:, None]).reshape(-1), axis=0
                    ).reshape(rows.size, width, s)
                    i1, i2 = np.nonzero(~rec)
                    if i1.size:
                        gathered[i1, i2] = parent_ext.take(src[i1, i2], axis=0)
                else:
                    gathered = parent_ext.take(src.reshape(-1), axis=0).reshape(
                        rows.size, width, s
                    )
                    i1, i2 = np.nonzero(rec)
                    if i1.size:
                        gathered[i1, i2] = buf.take(
                            src[i1, i2] * bp + childs[i1], axis=0
                        )
                np.add(gathered.max(axis=1), lanes, out=lanes)
                vals = lanes
            buf[slots * bp + childs] = vals

        self.delta_counters["states_incremental"] += bp
        self.delta_counters["levels_total"] += bp * sched.num_levels
        self.delta_counters["levels_skipped"] += bp * sched.num_levels - child_level_runs
        self.delta_counters["rows_total"] += bp * n
        self.delta_counters["rows_recomputed"] += recomputed

        # Sink-row reduction: recomputed pairs read ``buf``, untouched
        # pairs the shared parent row -- max over partitions = the max.
        sinks = sched.sink_slots
        out = np.where(
            mask[sinks[0]][:, None], buf3[sinks[0]], parent_ext[sinks[0]][None, :]
        )
        for t in sinks[1:]:
            np.maximum(
                out,
                np.where(mask[t][:, None], buf3[t], parent_ext[t][None, :]),
                out=out,
            )
        return out  # fresh (B', S)

    def _makespan_delta(
        self,
        problem: CompiledProblem,
        state: PlanState,
        parent_frontier: np.ndarray,
        return_frontier: bool = False,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Makespan row of ``state`` by delta propagation from its parent.

        ``parent_frontier`` is the parent's permuted ``(N, S)`` finish
        matrix.  Levels below the first dirty level are copied verbatim;
        from there on, only rows whose task is dirty or has a recomputed
        ancestor are re-propagated (same gather + ``max`` + ``add``
        arithmetic as the full kernel, hence bit-identical).  The final
        reduction runs over the sink rows alone -- with non-negative
        task times every inner task's finish is dominated by some sink's.

        Returns ``(makespan_row, frontier)``; ``frontier`` is a fresh
        ``(N, S)`` copy of the child's finish matrix when
        ``return_frontier`` is set, else ``None``.
        """
        n = problem.num_tasks
        s = problem.num_samples
        sched = problem.levels
        assign = self._validated_assignments(problem, [state])[0]
        dirty = np.asarray(state.dirty, dtype=np.int64)
        if dirty.size == 0 or dirty.min() < 0 or dirty.max() >= n:
            raise SolverError(f"dirty task set {state.dirty!r} out of range for {n} tasks")

        # Pass 1 (boolean only, no sample data): discover the affected
        # slots per level -- dirty tasks plus anything with a recomputed
        # ancestor.  After the loop ``mask`` is the full recompute set.
        mask = self._buf("delta_mask", (n + 1,), dtype=bool)
        mask[:] = False
        mask[sched.rank[dirty]] = True
        first = int(sched.depth[dirty].min())
        plan: list[tuple[int, np.ndarray, np.ndarray]] = []
        for lv in range(first, sched.num_levels):
            lo, hi = sched.level_bounds[lv]
            gather = sched.level_parents[lv]
            if gather.shape[1]:
                aff = mask[lo:hi] | mask[gather].any(axis=1)
            else:
                aff = mask[lo:hi]
            rows = np.nonzero(aff)[0]
            if rows.size == 0:
                continue
            mask[lo + rows] = True
            plan.append((lo, gather, rows))

        # Stage the finish buffer.  Only the parent rows the suffix will
        # actually *read* -- unrecomputed gather sources and sinks -- are
        # copied in; every other unchanged row is never touched, so the
        # full (N, S) memcpy of the naive approach disappears.  (The
        # frontier-returning path still needs every row: a later delta
        # from this child may read any of them.)
        buf = self._buf("delta_finish", (n + 1, s))
        buf[n] = 0.0  # the sentinel row every padded parent slot reads
        if return_frontier:
            np.copyto(buf[:n], parent_frontier)
        else:
            reads = [sched.sink_slots]
            for _, gather, rows in plan:
                if gather.shape[1]:
                    reads.append(gather[rows].ravel())
            read_slots = np.unique(np.concatenate(reads))
            # Recomputed slots are written before any later level (or the
            # sink reduction) reads them; the sentinel row is set above.
            needed = read_slots[(read_slots < n) & ~mask[read_slots]]
            buf[needed] = parent_frontier[needed]

        # Pass 2: re-propagate the affected rows with the identical
        # gather + max + add arithmetic the full kernel uses (column
        # takes for narrow fan-in, 3-D gather for wide), hence
        # bit-identical finish times.
        rows_matrix = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        w = sched.max_width
        ready_buf = self._buf("delta_ready", (w, s))
        other_buf = self._buf("delta_other", (w, s))
        recomputed = 0
        for lo, gather, rows in plan:
            r = int(rows.size)
            recomputed += r
            slots = lo + rows
            tasks = sched.order[slots]
            lanes = rows_matrix.take(assign[tasks] * n + tasks, axis=0)  # (r, S)
            width = gather.shape[1]
            if width == 0:
                buf[slots] = lanes
            elif width <= _COLUMN_FANIN_MAX:
                g = gather[rows]
                ready = ready_buf[:r]
                np.take(buf, np.ascontiguousarray(g[:, 0]), axis=0, out=ready)
                for c in range(1, width):
                    other = other_buf[:r]
                    np.take(buf, np.ascontiguousarray(g[:, c]), axis=0, out=other)
                    np.maximum(ready, other, out=ready)
                np.add(ready, lanes, out=lanes)
                buf[slots] = lanes
            else:
                # Big fan-in, few rows: one 3-D gather + max reduction.
                np.add(buf[gather[rows]].max(axis=1), lanes, out=lanes)
                buf[slots] = lanes

        self.delta_counters["states_incremental"] += 1
        self.delta_counters["levels_total"] += sched.num_levels
        self.delta_counters["levels_skipped"] += sched.num_levels - len(plan)
        self.delta_counters["rows_total"] += n
        self.delta_counters["rows_recomputed"] += recomputed

        makespan = buf[sched.sink_slots].max(axis=0)  # fresh (S,) row
        frontier = buf[:n].copy() if return_frontier else None
        return makespan, frontier

    def ensure_frontier(self, problem: CompiledProblem, state: PlanState) -> None:
        """Cache ``state``'s finish-time frontier ahead of its expansion.

        The search calls this for each beam state it is about to expand,
        so the children generated from it can all take the delta path.
        Chains stay cheap: a state whose *own* parent frontier is still
        cached is itself delta-propagated rather than recomputed.
        """
        ctx = self.eval_context
        n = problem.num_tasks
        if ctx is None or not self.level_parallel or n == 0:
            return
        token = problem.sample_token
        if ctx.peek(token, state.key):
            return
        if (
            state.parent_key is not None
            and state.dirty
            and ctx.peek(token, state.parent_key)
        ):
            parent = ctx.get(token, state.parent_key)
            _, frontier = self._makespan_delta(
                problem, state, parent, return_frontier=True
            )
            ctx.put(token, state.key, frontier)
            return
        sched = problem.levels
        assign = self._validated_assignments(problem, [state])[0]
        perm_tasks = sched.order
        rows_matrix = problem.tensor_taskmajor.reshape(problem.num_types * n, problem.num_samples)
        lanes = rows_matrix.take(assign[perm_tasks] * n + perm_tasks, axis=0)
        finish = sched.propagate_permuted(lanes)
        ctx.put(token, state.key, finish[:n].copy())

    def delta_stats(self) -> dict[str, int]:
        """A copy of the monotone incremental-work counters."""
        return dict(self.delta_counters)

    def release_buffers(self) -> None:
        """Drop the pooled scratch arrays (``Deco.clear_caches`` hook)."""
        self.pool.clear()

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """Prefix-fidelity probabilities via the fused full kernel.

        Screening problems carry fresh sample tokens, so their states
        would never find frontiers anyway; routing them explicitly
        around the incremental partition keeps the delta counters
        attributable to full-fidelity work.
        """
        sp = self.screen_problem(problem, prefix)
        makespans = self.makespan_samples(sp, list(states), incremental=False)
        return np.mean(makespans <= sp.deadline, axis=1)


class ScalarBackend(EvaluationBackend):
    """The single-thread CPU reference: same math, pure-Python loops.

    Deliberately un-vectorized -- this is the baseline of the paper's
    GPU-vs-CPU speedup measurements, and the numbers it produces are
    identical to :class:`VectorizedBackend` on the same problem.
    """

    name = "cpu"

    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        states = list(states)
        n = problem.num_tasks
        s = problem.num_samples
        tensor = problem.tensor
        out = np.empty((len(states), s), dtype=float)
        for b, state in enumerate(states):
            assign = state.assignment
            if len(assign) != n:
                raise SolverError(f"state has {len(assign)} tasks, problem has {n}")
            for sample in range(s):
                finish = [0.0] * n
                best = 0.0
                for i, parents in enumerate(problem.parent_indices):
                    ready = 0.0
                    for p in parents:
                        if finish[p] > ready:
                            ready = finish[p]
                    f = ready + tensor[assign[i], sample, i]
                    finish[i] = f
                    if f > best:
                        best = f
                out[b, sample] = best
        return out


_BACKENDS = {"gpu": VectorizedBackend, "cpu": ScalarBackend}
BACKEND_NAMES = ("gpu", "cpu", "analytic")


def get_backend(
    name: str,
    cache: MakespanCache | None = None,
    eval_context: EvalContext | None = None,
) -> EvaluationBackend:
    """Backend factory: ``"gpu"`` (vectorized), ``"cpu"`` (scalar) or
    ``"analytic"`` (moment propagation, no sampling)."""
    if name == "analytic":
        # Imported lazily: analytic_backend itself imports this module.
        from repro.solver.analytic_backend import AnalyticBackend

        return AnalyticBackend(cache=cache, eval_context=eval_context)
    try:
        return _BACKENDS[name](cache=cache, eval_context=eval_context)
    except KeyError:
        raise SolverError(
            f"unknown backend {name!r}; choose from {sorted(BACKEND_NAMES)}"
        ) from None
