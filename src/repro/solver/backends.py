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


#: The delta kernel works through a level's pairs in tiles whose gathered
#: operands take about this many bytes, so a tile's lane rows, its two
#: gather buffers and its result stay in a core's L2 between the take,
#: the max and the add: measured on a 6000-pair, fan-in-3 level at
#: S = 150, 0.3-0.6 MB tiles run 25% faster than the untiled level, and
#: a wide-fan-in level (one 402-parent pair is 0.5 MB) is insensitive
#: from one pair per tile upwards.  It also bounds the kernel's pooled
#: temporaries whatever the batch size.
_TILE_BYTES = 512 << 10


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

    def ensure_frontier(self, problem: CompiledProblem, *states: PlanState) -> None:
        """Prepare to evaluate single-edit children of ``states`` cheaply.

        A hint the search gives before it expands ``states``; backends
        with nothing to prepare ignore it.
        """

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


def validated_dirty_sets(states, num_tasks: int) -> tuple[np.ndarray, np.ndarray]:
    """The states' dirty task sets, flattened: ``(sizes, tasks)``.

    ``tasks`` concatenates every state's dirty tuple and ``sizes[j]`` is
    the length of state ``j``'s.  Raises :class:`SolverError` when a set
    is empty or names a task outside the problem.
    """
    sizes = np.fromiter((len(st.dirty) for st in states), np.int64, len(states))
    tasks = np.fromiter(
        itertools.chain.from_iterable(st.dirty for st in states),
        np.int64, int(sizes.sum()),
    )
    if sizes.min() == 0 or tasks.min() < 0 or tasks.max() >= num_tasks:
        bad = next(
            st.dirty for st in states
            if not st.dirty or min(st.dirty) < 0 or max(st.dirty) >= num_tasks
        )
        raise SolverError(f"dirty task set {bad!r} out of range for {num_tasks} tasks")
    return sizes, tasks


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

    With an ``eval_context``, :meth:`makespan_samples` takes the
    **delta-propagation** path for every state whose parent frontier is
    cached: read the parent's finish rows in place, recompute only the
    dirty tasks' rows and their (transitive) descendants level by level
    -- for all such states of the batch in one kernel launch -- and
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
        eval_context: EvalContext | None = None,
        pool: ScratchPool | None = None,
    ):
        super().__init__(cache=cache, eval_context=eval_context)
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
        if n == 0:
            return np.zeros((b, s))

        ctx = self.eval_context
        if not incremental or ctx is None:
            return self._makespan_full(problem, states)

        # Incremental partition: every state whose parent frontier is
        # resident joins the one delta launch, whichever parent it has;
        # the rest share one fused full-batch kernel.
        token = problem.sample_token
        delta_at: list[int] = []
        slots: list[int] = []
        full_at: list[int] = []
        for i, st in enumerate(states):
            slot = None
            if st.parent_key is not None and st.dirty:
                slot = ctx.find(token, st.parent_key)
            if slot is None:
                full_at.append(i)
            else:
                delta_at.append(i)
                slots.append(slot)
        out = np.empty((b, s))
        if delta_at:
            chosen = [states[i] for i in delta_at]
            delta = self._delta_launch(
                problem,
                self._validated_assignments(problem, chosen),
                *validated_dirty_sets(chosen, n),
                slots,
            )
            if not full_at:
                return delta
            out[delta_at] = delta
        if full_at:
            out[full_at] = self._makespan_full(problem, [states[i] for i in full_at])
            self.delta_counters["states_full"] += len(full_at)
            self.delta_counters["levels_total"] += len(full_at) * problem.levels.num_levels
            self.delta_counters["rows_total"] += len(full_at) * n
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

    def _delta_launch(
        self,
        problem: CompiledProblem,
        assign: np.ndarray,
        sizes: np.ndarray,
        dirty: np.ndarray,
        slots: list[int],
        in_place: bool = False,
    ) -> np.ndarray | None:
        """The delta kernel: one launch for any batch of lineage states.

        State ``j`` (row ``j`` of the validated ``(B, N)`` ``assign``,
        dirty set ``sizes`` / ``dirty`` as :func:`validated_dirty_sets`
        returns them) differs in its dirty tasks from the frontier in
        slab slot ``slots[j]``; any number of states may share a slot,
        and the slots may all differ.  Work is organized over *(slot,
        child)* pairs -- exactly the finish rows whose value can differ
        from the source frontier's -- so each level is a handful of
        fused flat-index gathers over the affected pairs of the whole
        batch.  ``addr[r, j]`` is the row of the slab matrix that holds
        child ``j``'s finish time in permuted slot ``r``: the source
        frontier's own row until the pair is recomputed, a workspace row
        afterwards.  Levels run in order and a row reads lower levels
        only, so every gather finds its operands in place, unchanged
        rows are never copied anywhere, and the final reduction runs
        over the sink rows alone.  Every recomputed pair applies the
        identical gather + ``max`` + ``add`` arithmetic to the identical
        float64 operands as the full fused kernel, so results are
        bit-identical (asserted by the tests).

        Returns the fresh ``(B, S)`` makespans.  With ``in_place``,
        ``slots`` are frontiers the caller has just copied from each
        state's parent: recomputed rows overwrite them, turning each
        into its state's own frontier, and nothing is returned.
        """
        n = problem.num_tasks
        s = problem.num_samples
        b = len(slots)
        sched = problem.levels
        slab = self.eval_context.slab(problem.sample_token)
        rows, stride = slab.rows, slab.stride

        # Pass 1 (boolean only): the affected pairs -- dirty tasks plus
        # anything with an affected ancestor -- closed level by level
        # over the whole batch at once.
        mask = self._buf("delta_mask", (stride, b), dtype=bool)
        mask[...] = False
        mask[sched.dirty_slots(dirty), np.repeat(np.arange(b), sizes)] = True
        first = sched.first_dirty_level(dirty)
        child_level_runs = 0  # (level, child) pairs with recomputed rows
        for lv in range(first, sched.num_levels):
            lo, hi = sched.level_bounds[lv]
            gather = sched.level_parents[lv]
            sub = mask[lo:hi]
            if gather.shape[1]:
                sub |= mask[gather].any(axis=1)
            child_level_runs += int(np.count_nonzero(sub.any(axis=0)))
        pairs = np.cumsum(mask.sum(axis=0))  # running pair count by child

        self.delta_counters["states_incremental"] += b
        self.delta_counters["levels_total"] += b * sched.num_levels
        self.delta_counters["levels_skipped"] += b * sched.num_levels - child_level_runs
        self.delta_counters["rows_total"] += b * n
        self.delta_counters["rows_recomputed"] += int(pairs[-1])

        # Pass 2: re-propagate the affected pairs, as many children at a
        # time as the workspace has rows for.  ``np.nonzero`` lists a
        # chunk's pairs by slot, hence level by level; pair ``i`` of the
        # list is recomputed into workspace row ``work + i`` (or, in
        # place, into the frontier row it was read from), each level in
        # cache-sized tiles.  Indices come from validated assignments
        # and the address table, so the takes skip bounds checks.
        base = np.asarray(slots, dtype=np.int64) * stride
        slot_column = np.arange(stride)[:, None]
        table = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        lane_rows = assign * n + np.arange(n)  # (B, N) rows of ``table``
        work = slab.workspace_start
        capacity = rows.shape[0] - work
        tile = max(1, _TILE_BYTES // (8 * s))  # rows per tile
        ready_buf = self._buf("delta_ready", (tile, s))
        other_buf = self._buf("delta_other", (tile, s))
        vals_buf = self._buf("delta_vals", (tile, s)) if in_place else None
        out = None if in_place else np.empty((b, s))
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
            if in_place:
                dst = addr[slot, child]
            else:
                addr[slot, child] = np.arange(work, work + slot.size)
                slab.workspace_touched = max(slab.workspace_touched, slot.size)
            ends = np.searchsorted(slot, sched.level_starts[first + 1 :]).tolist()
            begin = 0
            for lv, end in enumerate(ends, start=first):
                if begin == end:
                    continue
                gather = sched.level_parents[lv]
                width = gather.shape[1]
                wide = width > _COLUMN_FANIN_MAX
                step = max(1, tile // width) if wide else tile
                if width:
                    # (P, p): the row now holding each source of each pair.
                    level_slots = slot[begin:end] - sched.level_bounds[lv][0]
                    src = addr[gather[level_slots].T, child[begin:end]]
                if wide:
                    wide_buf = self._buf("delta_wide", (width * step, s))
                for i in range(begin, end, step):
                    k = min(step, end - i)
                    part = vals_buf[:k] if in_place else rows[work + i : work + i + k]
                    np.take(table, lanes[i : i + k], axis=0, out=part, mode="clip")
                    if width:
                        j = i - begin
                        ready = ready_buf[:k]
                        if wide:
                            # Big fan-in, few pairs: 3-D gather + max reduction.
                            gathered = wide_buf[: width * k]
                            np.take(
                                rows, src[:, j : j + k].reshape(-1), axis=0,
                                out=gathered, mode="clip",
                            )
                            np.max(gathered.reshape(width, k, s), axis=0, out=ready)
                        else:
                            np.take(rows, src[0, j : j + k], axis=0, out=ready, mode="clip")
                            for col in src[1:]:
                                other = other_buf[:k]
                                np.take(rows, col[j : j + k], axis=0, out=other, mode="clip")
                                np.maximum(ready, other, out=ready)
                        np.add(ready, part, out=part)
                    if in_place:
                        rows[dst[i : i + k]] = part
                begin = end
            if not in_place:
                # Sink-row reduction, each sink read wherever it now lives.
                part = out[c0:c1]
                sinks = sched.sink_slots
                np.take(rows, addr[sinks[0]], axis=0, out=part, mode="clip")
                for t in sinks[1:]:
                    np.maximum(part, rows.take(addr[t], axis=0), out=part)
            c0 = c1
        return out

    def ensure_frontier(self, problem: CompiledProblem, *states: PlanState) -> None:
        """Cache the states' finish-time frontiers ahead of their expansion.

        The search calls this with the beam states it is about to
        expand, so the children generated from them can all take the
        delta path.  Chains stay cheap: every state whose *own* parent
        frontier is still cached is delta-propagated from it -- all of
        them in one launch of the delta kernel, writing the new
        frontiers in place -- and only the rest are propagated in full.
        Every parent is looked up before any frontier is stored, and a
        store never evicts a frontier this call reads or writes: a state
        that does not fit beside them goes unpinned (its children take
        the full kernel).
        """
        ctx = self.eval_context
        n = problem.num_tasks
        if ctx is None or n == 0:
            return
        s = problem.num_samples
        token = problem.sample_token
        pending = list(
            {st.key: st for st in states if not ctx.peek(token, st.key)}.values()
        )
        sources = [
            ctx.find(token, st.parent_key)
            if st.parent_key is not None and st.dirty and ctx.peek(token, st.parent_key)
            else None
            for st in pending
        ]
        keep = {st.key for st in pending}
        keep.update(st.parent_key for st, src in zip(pending, sources) if src is not None)
        sched = problem.levels
        order = sched.order
        table = problem.tensor_taskmajor.reshape(problem.num_types * n, s)
        reserved: list[bytes] = []
        chained: list[PlanState] = []
        slots: list[int] = []
        try:
            for st, src in zip(pending, sources):
                slot = ctx.reserve(token, st.key, n, s, keep)
                if slot is None:
                    continue
                reserved.append(st.key)
                slab = ctx.slab(token)
                if src is None:
                    assign = self._validated_assignments(problem, [st])[0]
                    lanes = table.take(assign[order] * n + order, axis=0)
                    sched.propagate_permuted(lanes, finish=slab.frontier(slot))
                else:
                    np.copyto(slab.frontier(slot), slab.frontier(src))
                    chained.append(st)
                    slots.append(slot)
            if chained:
                self._delta_launch(
                    problem,
                    self._validated_assignments(problem, chained),
                    *validated_dirty_sets(chained, n),
                    slots,
                    in_place=True,
                )
        except BaseException:
            # A reserved slot is resident: never leave one half written.
            for key in reserved:
                ctx.discard(token, key)
            raise

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
