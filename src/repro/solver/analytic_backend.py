"""Vectorized analytic evaluation: moment propagation instead of sampling.

The evaluation strategy next to Monte Carlo (``gpu``): the finish-time
propagation of Algorithm 1 carried as per-task moments instead of
samples, array-programmed directly on the compiled problem's tensors
and :class:`~repro.solver.levels.LevelSchedule`, so a whole candidate
batch is evaluated without touching a single Monte Carlo lane.

Representation
--------------
Each ``(type, task)`` cell is **calibrated once per sample tensor** into
a fixed ``Q``-point quantile grid -- the midpoint quantiles of the
cell's empirical sample row -- and the grid's first two moments
``(mean, variance)`` are what the calibration keeps, memoized by
``sample_token`` exactly like the makespan caches, so
:meth:`CompiledProblem.with_deadline` sweeps reuse one calibration and
:meth:`CompiledProblem.with_faults` derivations (whose tensors are
analytically inflated) calibrate their own.  The propagation carries
those moments per task -- the discretized-distribution analogue of
carrying S samples, with a 2-wide lane instead of an S-wide one.

Algebra
-------
The propagation is the Monte Carlo kernel's level pass,
:meth:`~repro.solver.levels.LevelSchedule.propagate`, over ``(2, N+1,
b)`` mean/variance blocks, with Clark's max as its join (read in
parent-list order, which Clark's tournament depends on):

* ``+`` (a task after its ready time) adds means and -- assuming the
  task's own time independent of its ready time, which is exact under
  the runtime model's per-(task, type) bandwidth draws -- variances;
* ``max`` (a join over parents) uses Clark's Gaussian moment matching
  (C. E. Clark, *The greatest of a finite set of random variables*,
  1961): the mean and variance of ``max(X1, X2)`` for independent
  normals, applied pairwise down the parent columns.

Both steps treat joining paths as independent.  Under positive path
correlation (shared ancestors) independence *overestimates* ``E[max]``,
so the analytic deadline probability is biased **low** at correlated
joins: a pessimistic screen that never flatters an infeasible plan at a
join.
The normal surrogate can bias the upper tail the other way on skewed
sums, which is why the screening tier keeps a calibrated safety margin
and full-fidelity Monte Carlo remains the referee (see DESIGN.md §11;
:data:`ANALYTIC_PROB_ERROR_BOUND` is the measured error bound, held by
``tests/solver/test_analytic_backend.py::TestErrorBound``).

The final makespan is exposed both as ``(mean, variance)`` --
``deadline_probabilities`` is a closed-form normal CDF -- and, through
:meth:`makespan_samples`, as a ``Q``-point quantile grid per state so
the backend satisfies the common backend interface.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from statistics import NormalDist

import numpy as np

from repro.solver.backends import (
    CompiledProblem,
    EvaluationBackend,
    validated_assignments,
)
from repro.solver.cache import ScratchPool
from repro.solver.levels import copy_rows
from repro.solver.state import BatchEval, as_block

__all__ = ["ANALYTIC_PROB_ERROR_BOUND", "AnalyticBackend", "clark_max", "norm_cdf", "norm_ppf"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Variance floor: keeps ``alpha = dm / sqrt(v1 + v2)`` finite for
#: deterministic operands.  At this scale ``Phi`` saturates to 0/1 and
#: the Clark formulas collapse to the exact deterministic max.
_MIN_VAR = 1e-18
_INTP = np.dtype(np.intp)

#: :meth:`AnalyticBackend.makespan_moments` runs a batch in equal tiles
#: of as many states as fit this many bytes of pooled scratch (at least
#: one state), so tier 0's buffers do not grow with the batch: 101
#: Montage-8 states (46 KB each), so a search-sized batch is one tile.
_MOMENT_BYTES = 9 << 19

#: The normal tail is ``Phi(-x) = phi(x) * M(x)`` for ``x >= 0``, with
#: ``M`` the Mills ratio, read off a piecewise polynomial table on
#: ``[0, _TAIL_X_MAX]``: :data:`_TAIL_STEPS` intervals per unit (a power
#: of two, so ``x * _TAIL_STEPS`` and its floor are exact), each the
#: degree-:data:`_TAIL_DEGREE` Taylor polynomial of ``M`` at its left
#: end.  Past the table ``x`` is clamped: ``Phi(-8.5) < 1e-17`` bounds
#: that error, and the 340 KB table stays in L2.
_TAIL_X_MAX = 8.5
_TAIL_STEPS = 1024
_TAIL_DEGREE = 4
_TAIL_R_MAX = _TAIL_X_MAX * _TAIL_STEPS


@functools.cache
def _mills_table() -> np.ndarray:
    """``(_TAIL_DEGREE + 1, K)`` Horner coefficients of ``M``, highest power first.

    Column ``i`` holds ``c[k] h**k`` of ``M(x_i + h t) = sum c[k] (h t)**k``
    at the node ``x_i = i h``, ``h = 1 / _TAIL_STEPS``: ``M(x_i)`` from
    ``math.erfc`` and ``math.exp``, the higher coefficients from
    ``M' = x M - 1``, i.e. ``(k + 1) c[k + 1] = x c[k] + c[k - 1]``.
    Truncation costs at most 2.4e-17 of ``Phi``, and ``Phi(0)`` is
    exactly 1/2.  Built once per process, on the first call, in about
    3 ms.
    """
    x = np.arange(int(_TAIL_R_MAX) + 1) / _TAIL_STEPS
    sqrt_half, c = math.sqrt(0.5), math.sqrt(0.5 * math.pi)
    taylor = [np.array([math.erfc(v * sqrt_half) * math.exp(0.5 * v * v) * c for v in x.tolist()])]
    taylor.append(x * taylor[0] - 1.0)
    for k in range(1, _TAIL_DEGREE):
        taylor.append((x * taylor[k] + taylor[k - 1]) / (k + 1))
    table = np.array([taylor[k] / _TAIL_STEPS**k for k in range(_TAIL_DEGREE, -1, -1)])
    table.setflags(write=False)
    return table


def _tail_into(
    x: np.ndarray, phi: np.ndarray, out: np.ndarray, t: np.ndarray, c: np.ndarray,
    idx: np.ndarray,
) -> None:
    """``out = Phi(-x)`` for ``x >= 0`` (or NaN), given ``phi = phi(x)``.

    ``t`` / ``c`` (float64) and ``idx`` (intp) are scratch of ``x``'s
    shape.  NaN propagates through ``phi``; ``+inf`` gives 0.
    """
    table = _mills_table()
    np.multiply(x, _TAIL_STEPS, t)
    np.fmin(t, _TAIL_R_MAX, t)  # fmin: a NaN becomes a valid index
    np.floor(t, c)
    np.subtract(t, c, t)
    np.copyto(idx, c, casting="unsafe")
    # Indices are in range by construction: mode="clip" skips the check.
    table[0].take(idx, 0, out, "clip")
    for row in table[1:]:
        np.multiply(out, t, out)
        row.take(idx, 0, c, "clip")
        np.add(out, c, out)
    np.multiply(out, phi, out)


def _tail(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``Phi(-x)`` for ``x >= 0``, into fresh arrays (see :func:`_tail_into`)."""
    out = np.empty_like(x)
    _tail_into(x, phi, out, np.empty_like(x), np.empty_like(x), np.empty(x.shape, np.intp))
    return out


def norm_cdf(x) -> np.ndarray:
    """``Phi(x)``, the standard normal CDF, elementwise (float64).

    Absolute error below 4.5e-16 everywhere (``tests/solver/
    test_normal.py``); NaN propagates.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    y = _tail(ax, np.exp(ax * ax * -0.5) * _INV_SQRT_2PI)
    return np.where(x < 0, y, 1.0 - y)


def norm_ppf(p: float) -> float:
    """``Phi^-1(p)`` for ``0 < p < 1``: the standard normal quantile."""
    return NormalDist().inv_cdf(p)


def clark_max(
    m1: np.ndarray, v1: np.ndarray, m2: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clark's moment-matched ``max`` of independent normals, elementwise.

    Returns the mean and variance of ``max(X1, X2)`` for independent
    ``X1 ~ N(m1, v1)``, ``X2 ~ N(m2, v2)``, in the symmetric form: with
    ``a`` the sd of ``X1 - X2``, ``x = |m1 - m2| / a``, ``y = Phi(-x)``
    and the loss ``L = phi(x) - x y``,

    * mean ``= max(m1, m2) + a L``,
    * variance ``= s (1/2 - L (x + L)) + (v_hi - v_lo) (1/2 - y)``,

    ``s = v1 + v2`` and ``v_hi`` the variance of the operand with the
    larger mean.  Nothing cancels: the variance is not a difference of
    second moments.  Degenerate operands need no branching: with both
    variances at the floor, ``x`` saturates and the result is the
    deterministic ``(max(m1, m2), 0)``.  This is the reference
    :func:`_clark_max_into` reproduces bit for bit.
    """
    s = v1 + v2
    d = m1 - m2
    a = np.sqrt(np.maximum(s, _MIN_VAR))
    x = np.abs(d) / a
    phi = np.exp(x * x * -0.5) * _INV_SQRT_2PI
    y = _tail(x, phi)
    loss = phi - x * y
    mean = np.maximum(m1, m2) + a * loss
    # (v_hi - v_lo) (1/2 - y) = (v1 - v2) sign(d) (1/2 - y), and 1/2 - y >= 0.
    var = s * (0.5 - (x + loss) * loss) + (v1 - v2) * np.copysign(0.5 - y, d)
    return mean, np.maximum(var, 0.0)


#: Scratch arrays one :func:`_clark_max_into` call needs: six float64, one intp.
_CLARK_SCRATCH = 7


def _clark_max_into(
    m1: np.ndarray, v1: np.ndarray, m2: np.ndarray, v2: np.ndarray, ws: tuple[np.ndarray, ...]
) -> None:
    """:func:`clark_max` in place: the mean into ``m1``, the variance into ``v1``.

    The level kernel's hot loop runs one Clark step per parent column
    per level; at search batch sizes ufunc temporaries would dominate
    its runtime, so every intermediate lives in ``m2`` / ``v2`` (which
    are clobbered) and the pooled scratch ``ws``: six float64 arrays and
    one intp array, all of the operands' shape.  Same operations in
    the same order as :func:`clark_max`, so the results are equal bit
    for bit.  Most calls run on a few hundred elements (a tournament's
    late rounds), where call overhead rivals the arithmetic: outputs go
    positionally and gathers through ``ndarray.take``, which skip the
    keyword parsing and ``np.take``'s wrapper.
    """
    w0, w1, w2, w3, w4, w5, idx = ws
    np.add(v1, v2, w0)  # s
    np.subtract(v1, v2, v1)
    np.subtract(m1, m2, w5)  # d
    np.maximum(m1, m2, out=m1)
    np.maximum(w0, _MIN_VAR, out=v2)
    np.sqrt(v2, v2)  # a
    np.abs(w5, w1)
    np.divide(w1, v2, w1)  # x = |alpha|
    np.multiply(w1, w1, m2)
    np.multiply(m2, -0.5, m2)
    np.exp(m2, m2)
    np.multiply(m2, _INV_SQRT_2PI, m2)  # phi
    _tail_into(w1, m2, w2, w3, w4, idx)  # y
    np.multiply(w1, w2, w3)
    np.subtract(m2, w3, m2)  # L
    np.multiply(v2, m2, w3)
    np.add(m1, w3, m1)  # mean
    np.add(w1, m2, w1)
    np.multiply(w1, m2, w1)
    np.subtract(0.5, w1, w1)
    np.multiply(w0, w1, w0)
    np.subtract(0.5, w2, w2)
    np.copysign(w2, w5, w2)
    np.multiply(v1, w2, v1)
    np.add(w0, v1, v1)
    np.maximum(v1, 0.0, out=v1)  # variance


def _clark_reduce(
    m: np.ndarray, v: np.ndarray, pool: ScratchPool
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Clark ``max`` over axis 1 of ``(n, P, B)`` moment stacks.

    The big fan-in path (reduction tasks like Montage's ``mConcatFit``):
    a log2(P)-step tournament instead of a sequential column walk.
    Padded parent slots carry the zero sentinel moments; at reduction
    levels every real operand's mean dwarfs its standard deviation, so
    Clark against the sentinel degrades to the identity (error < 1e-6
    relative -- the same argument the MC kernel's sentinel row relies
    on, checked by the accuracy tests).

    ``m`` and ``v`` are caller-owned scratch and are clobbered: each
    round writes its winners over the leading columns in place, with
    the other half as Clark's scratch, so the reduction copies nothing
    back and allocates nothing beyond the pool's grow-only backing.
    """
    n, p, b = m.shape
    if p <= 1:
        return m[:, 0], v[:, 0]
    # One take per buffer at the first round's (largest) width; later
    # rounds slice the same backing rather than re-entering the pool.
    ws = _clark_scratch(pool, (n, p // 2, b))
    while p > 1:
        half = p // 2
        _clark_max_into(m[:, :half], v[:, :half], m[:, half : 2 * half], v[:, half : 2 * half],
                        tuple(w[:, :half] for w in ws))
        if p % 2:
            m[:, half] = m[:, p - 1]
            v[:, half] = v[:, p - 1]
            p = half + 1
        else:
            p = half
    return m[:, 0], v[:, 0]


def _clark_scratch(pool: ScratchPool, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The pooled ``ws`` of :func:`_clark_max_into` for operands of ``shape``."""
    floats = tuple(pool.take(f"an_ws{i}", shape) for i in range(_CLARK_SCRATCH - 1))
    return floats + (pool.take("an_idx", shape, _INTP),)


class _ClarkJoin:
    """Tier 0's join: Clark's moment max, in place, over pooled scratch.

    Finish rows are ``(2, N+1, b)`` (means, variances), so every Clark
    operand is a contiguous block.  Clark's tournament depends on
    operand order: a narrow level folds its columns left to right, a
    wide one runs :func:`_clark_reduce` over its parent-list gather,
    never the slot-order block.  :func:`_clark_max_into` clobbers its
    second operand, so a viewed column is copied first; a padded slot
    (row N) keeps the ready moments instead of Clark-maxing with N(0, 0).
    """

    def __init__(self, pool: ScratchPool, lanes: int):
        self.pool, self.b = pool, lanes

    def narrow(self, finish: np.ndarray, columns: tuple, lo: int, hi: int) -> np.ndarray:
        if len(columns) == 1 and isinstance(columns[0], slice):
            return finish[:, columns[0]]
        k, n = hi - lo, finish.shape[1] - 1
        ready = copy_rows(finish, columns[0], self.pool.take("an_r", (2, k, self.b)))
        other = self.pool.take("an_o", (2, k, self.b))
        ws = _clark_scratch(self.pool, (k, self.b))
        for col in columns[1:]:
            copy_rows(finish, col, other)
            pad = None if isinstance(col, slice) else col == n
            kept = ready[:, pad] if pad is not None and pad.any() else None
            _clark_max_into(ready[0], ready[1], other[0], other[1], ws)
            if kept is not None:
                ready[:, pad] = kept
        return ready

    def wide(self, finish: np.ndarray, read, lo: int, hi: int) -> np.ndarray:
        k, p = read.gather.shape
        stack = self.pool.take("an_r", (2, k, p, self.b))
        finish.take(read.gather.reshape(-1), 1, stack.reshape(2, k * p, self.b), "clip")
        _clark_reduce(stack[0], stack[1], self.pool)
        return stack[:, :, 0]


def _midpoint_quantile_grids(taskmajor: np.ndarray, q: int) -> np.ndarray:
    """``(K, N, Q)`` midpoint-quantile grids of a task-major ``(K, N, S)`` sample array.

    The levels ``(i + 0.5) / Q`` are the mass centers of Q
    equal-probability bins, so grid mean/variance estimate each row's
    moments without the 0/1 endpoint blow-up of extreme order statistics.

    Element for element this is ``np.quantile(taskmajor, levels,
    axis=2)`` (``method="linear"``, levels moved last): the same virtual
    index ``(S - 1) * level``, the same neighbours and the same two-sided
    lerp, bit for bit -- but read off ONE full sort of each contiguous
    sample row, where ``np.quantile`` introselects around every one of
    the 2Q neighbour ranks in turn (10x the time at Q = 32).  An order
    statistic is the same number whichever algorithm ranked it, so the
    grids are ``array_equal`` to that call.
    The sort runs in the samples' own dtype; only the two gathered order
    statistics are upcast, so the grids are float64 and equal to those of
    ``taskmajor.astype(np.float64)``.
    """
    s = taskmajor.shape[2]
    virtual = (s - 1) * ((np.arange(q) + 0.5) / q)
    lower = np.floor(virtual)
    upper = lower + 1
    last = virtual >= s - 1  # only S == 1: both neighbours are the one sample
    lower[last] = upper[last] = -1
    lower = lower.astype(np.intp)
    upper = upper.astype(np.intp)
    t = virtual - lower
    # NumPy's lerp is a + (b - a) * t, or b - (b - a) * (1 - t) where
    # t >= 0.5.  Written from the nearer neighbour ``base`` towards the
    # other one it is one formula for every column, the same numbers
    # bit for bit (IEEE negation is exact: b - (b - a) * (1 - t) is
    # b + (a - b) * (1 - t)), and three in-place ufuncs.
    high = t >= 0.5
    ranked = np.sort(taskmajor, axis=2)
    base = ranked.take(np.where(high, upper, lower), axis=2).astype(np.float64)  # (K, N, Q)
    other = ranked.take(np.where(high, lower, upper), axis=2).astype(np.float64)
    np.subtract(other, base, out=other)
    np.multiply(other, np.where(high, 1 - t, t), out=other)
    np.add(base, other, out=base)
    return base


#: Upper bound on the absolute deviation between the analytic deadline
#: probability (normal CDF on propagated moments) and the full Monte
#: Carlo estimate, on search-shaped state batches at the deadline the
#: search uses.  Measured maxima are ~0.17 (montage-1) / ~0.09
#: (montage-4); the bound has slack for sampling noise, but a genuine
#: propagation regression (wrong variance algebra, broken calibration)
#: lands far above it.  The service reports it to clients as the
#: ``probability_error_bound`` of an analytic-backend (degraded) plan.
ANALYTIC_PROB_ERROR_BOUND = 0.25


class AnalyticBackend(EvaluationBackend):
    """Moment-propagation evaluation of plan states (no Monte Carlo).

    Usable standalone (``Deco(backend="analytic")``) and as tier 0 of
    the search's screening cascade.  ``pool`` shares the owning MC
    backend's :class:`~repro.solver.cache.ScratchPool` so the cascade's
    tiers do not pin duplicate large buffers.  It holds no makespan
    memo: the search memoizes tier 0's moments itself
    (``GenericSearch.moment_memo``).
    """

    name = "analytic"
    source = "analytic"

    #: Midpoint quantiles per task/type that calibrate its time.
    QUANTILE_POINTS = 32
    #: Sample tensors whose calibrations stay memoized.
    MAX_CALIBRATIONS = 8

    def __init__(self, pool: ScratchPool | None = None):
        self.pool = pool if pool is not None else ScratchPool()
        # sample_token -> ((K*N,) means, (K*N,) variances)
        self._calibrations: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        #: Monotone work counters.
        self.counters = {"states_analytic": 0, "calibrations": 0}

    # Calibration ------------------------------------------------------

    def _calibration(self, problem: CompiledProblem) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell ``(means, variances)`` of the quantile grids, LRU-memoized.

        Keyed by ``sample_token`` like every evaluation cache:
        ``with_deadline`` derivations share one calibration, while
        ``with_faults`` tensors (already analytically inflated by
        :meth:`FaultModel.inflate`) calibrate their own -- fault
        awareness flows into the analytic tier with no extra code.  The
        ``(K, N, Q)`` grids live only for the call: the propagation
        reads their moments, nothing else.
        """
        token = problem.sample_token
        entry = self._calibrations.get(token)
        if entry is not None:
            self._calibrations.move_to_end(token)
            return entry
        grids = _midpoint_quantile_grids(problem.tensor_taskmajor, self.QUANTILE_POINTS)
        means = np.ascontiguousarray(grids.mean(axis=2).reshape(-1))  # (K*N,)
        variances = np.ascontiguousarray(grids.var(axis=2).reshape(-1))
        for arr in (means, variances):
            arr.setflags(write=False)
        entry = (means, variances)
        self._calibrations[token] = entry
        while len(self._calibrations) > self.MAX_CALIBRATIONS:
            self._calibrations.popitem(last=False)
        self.counters["calibrations"] += 1
        return entry

    # Propagation ------------------------------------------------------

    def makespan_moments(
        self, problem: CompiledProblem, states
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(B,)`` mean and variance of the makespan for B states.

        The Monte Carlo kernel's level pass with a 2-wide lane per state
        instead of an S-wide one: each tile's ``(2, N+1, b)`` finish
        array holds the b states' means, then their variances, starts at
        the calibrated own moments, and runs
        :meth:`~repro.solver.levels.LevelSchedule.propagate` with Clark's
        join; the makespan is Clark's max over the sinks, folded in
        ``sink_slots`` order.  States are independent, so the batch runs
        in equal tiles within :data:`_MOMENT_BYTES` of scratch.
        """
        block = as_block(states)
        b = len(block)
        n = problem.num_tasks
        if b == 0:
            return np.zeros(0), np.zeros(0)
        if n == 0:
            return np.zeros(b), np.zeros(b)
        mean_rows, var_rows = self._calibration(problem)
        sched = problem.levels
        # (N, B) flat (type, task) ids of the level-permuted tasks.
        idx = validated_assignments(problem, block).T.take(sched.order, axis=0) * n
        idx += sched.order[:, None]
        # The finish rows, then per state of the widest read: the four
        # operand buffers and Clark's scratch.
        state_bytes = 8 * (2 * (n + 1) + (4 + _CLARK_SCRATCH) * sched.max_read)
        tiles = -(-b // max(1, _MOMENT_BYTES // state_bytes))
        step = -(-b // tiles)
        mean, var = np.empty(b), np.empty(b)
        sinks = sched.sink_slots.tolist()
        for c0 in range(0, b, step):
            ids = idx[:, c0 : c0 + step]
            k = ids.shape[1]
            finish = self.pool.take("an_finish", (2, n + 1, k))
            mean_rows.take(ids, 0, finish[0, :n], "clip")
            var_rows.take(ids, 0, finish[1, :n], "clip")
            finish[:, n] = 0.0  # the sentinel moments every padded parent slot reads
            sched.propagate(finish, _ClarkJoin(self.pool, k))
            # With non-negative task times every inner task's finish is
            # dominated by some sink's (as in the Monte Carlo kernel).
            mm, mv = finish[:, sinks[0]].copy()
            for t in sinks[1:]:
                mm, mv = clark_max(mm, mv, finish[0, t], finish[1, t])
            mean[c0 : c0 + k], var[c0 : c0 + k] = mm, mv
        self.counters["states_analytic"] += b
        return mean, var

    def deadline_probabilities(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B,)`` analytic P(makespan <= deadline): a closed-form CDF."""
        return norm_cdf(self.deadline_z(problem, states))

    def deadline_z(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B,)`` standardized deadline slack ``(D - mean) / sd``.

        The screening cascade classifies in z-space rather than
        probability space: near certainty ``Phi`` saturates (every
        comfortably feasible plan reads ``P = 1.0``), while z keeps
        discriminating -- a state at ``z = 4`` is far safer than one at
        ``z = 2`` even though both round to probability 1.  Margins on z
        are margins in units of the plan's own makespan spread.
        """
        mean, var = self.makespan_moments(problem, states)
        sd = np.sqrt(np.maximum(var, _MIN_VAR))
        return (problem.deadline - mean) / sd

    # Backend interface ------------------------------------------------

    def makespan_samples(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B, Q)`` makespan *quantile grids* (not Monte Carlo rows).

        The backend-interface view of the propagated distribution: row b
        holds the Q midpoint quantiles of the moment-matched normal, so
        ``row.mean()`` / ``np.mean(row <= d)`` estimate the same
        quantities sample rows do.  Q is :attr:`QUANTILE_POINTS`, not the
        problem's S.
        """
        mean, var = self.makespan_moments(problem, states)
        if not len(mean):
            return np.zeros((0, self.QUANTILE_POINTS))
        q = self.QUANTILE_POINTS
        z = np.array([norm_ppf((i + 0.5) / q) for i in range(q)])
        sd = np.sqrt(np.maximum(var, 0.0))
        return mean[:, None] + sd[:, None] * z[None, :]

    def evaluate_batch(self, problem: CompiledProblem, states) -> BatchEval:
        """Closed-form evaluation: Eq. 1 cost + normal-CDF probability."""
        block = as_block(states)
        if not len(block):
            return BatchEval.empty(0)
        mean, var = self.makespan_moments(problem, block)
        sd = np.sqrt(np.maximum(var, _MIN_VAR))
        return self._batch_eval(problem, block, norm_cdf((problem.deadline - mean) / sd), mean)

    def screen_probabilities(
        self, problem: CompiledProblem, states, prefix: int
    ) -> np.ndarray:
        """Analytic probabilities regardless of ``prefix``.

        There is no cheaper fidelity below the analytic propagation, so
        the two-stage screen's prefix stage collapses onto the full
        analytic evaluation when this backend runs standalone.
        """
        return self.deadline_probabilities(problem, states)

    # Bookkeeping ------------------------------------------------------

    def analytic_stats(self) -> dict[str, int]:
        """A copy of the monotone analytic-work counters."""
        return dict(self.counters)

    def cache_stats(self) -> dict[str, dict]:
        """``analytic``: the moment-propagation work counters, plus the
        resident calibrations (``calibration_entries`` / ``calibration_nbytes``)."""
        stats = self.analytic_stats()
        stats["calibration_entries"] = len(self._calibrations)
        stats["calibration_nbytes"] = sum(
            arr.nbytes for entry in self._calibrations.values() for arr in entry
        )
        return {"analytic": stats}

    def forget(self, token: int) -> None:
        """Drop ``token``'s calibration."""
        self._calibrations.pop(token, None)

    def release_buffers(self) -> None:
        """Drop scratch buffers and calibrations (``GenericSearch.clear_caches``)."""
        self.pool.clear()
        self._calibrations.clear()
