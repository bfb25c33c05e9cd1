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
Per level the kernel applies, to ``(n_L, B)`` moment blocks, the same
gather pattern as the Monte Carlo level kernel:

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

import math
from collections import OrderedDict

import numpy as np
from scipy.special import ndtr, ndtri

from repro.solver.backends import (
    CompiledProblem,
    EvaluationBackend,
    validated_assignments,
)
from repro.solver.cache import ScratchPool
from repro.solver.state import BatchEval, as_block

__all__ = ["ANALYTIC_PROB_ERROR_BOUND", "AnalyticBackend", "clark_max"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: Variance floor: keeps ``alpha = dm / sqrt(v1 + v2)`` finite for
#: deterministic operands.  At this scale ``ndtr`` saturates to 0/1 and
#: the Clark formulas collapse to the exact deterministic max.
_MIN_VAR = 1e-18


def clark_max(
    m1: np.ndarray, v1: np.ndarray, m2: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clark's moment-matched ``max`` of independent normals, elementwise.

    Returns the exact mean and variance of ``max(X1, X2)`` for
    independent ``X1 ~ N(m1, v1)``, ``X2 ~ N(m2, v2)``.  Degenerate
    operands need no branching: with both variances at the floor,
    ``alpha`` saturates ``ndtr`` and the result is the deterministic
    ``(max(m1, m2), 0)``.
    """
    a = np.sqrt(np.maximum(v1 + v2, _MIN_VAR))
    alpha = (m1 - m2) / a
    t = ndtr(alpha)  # P(X1 >= X2) under the normal model
    u = 1.0 - t
    phi = np.exp(-0.5 * alpha * alpha) / _SQRT_2PI
    mean = m1 * t + m2 * u + a * phi
    second = (m1 * m1 + v1) * t + (m2 * m2 + v2) * u + (m1 + m2) * a * phi
    var = second - mean * mean
    np.maximum(var, 0.0, out=var)
    return mean, var


def _clark_max_into(
    m1: np.ndarray,
    v1: np.ndarray,
    m2: np.ndarray,
    v2: np.ndarray,
    out_m: np.ndarray,
    out_v: np.ndarray,
    ws: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Allocation-free :func:`clark_max` into caller-owned buffers.

    The level kernel's hot loop runs one Clark step per parent column
    per level; at search batch sizes the ufunc temporaries dominate the
    kernel's runtime, so this variant threads every intermediate through
    three scratch buffers (``ws``) from the shared pool.  Inputs are
    read-only; results land in ``out_m`` / ``out_v`` (distinct from the
    inputs).
    """
    w0, w1, w2 = ws
    np.add(v1, v2, out=out_v)
    np.maximum(out_v, _MIN_VAR, out=out_v)
    np.sqrt(out_v, out=out_v)  # a = sd of the difference
    np.subtract(m1, m2, out=w0)
    np.divide(w0, out_v, out=w0)  # alpha
    ndtr(w0, out=w1)  # t = P(X1 >= X2)
    np.multiply(w0, w0, out=w0)
    np.multiply(w0, -0.5, out=w0)
    np.exp(w0, out=w0)
    np.multiply(w0, 1.0 / _SQRT_2PI, out=w0)  # phi(alpha)
    np.multiply(w0, out_v, out=w0)  # a * phi
    np.subtract(m1, m2, out=out_m)
    np.multiply(out_m, w1, out=out_m)
    np.add(out_m, m2, out=out_m)
    np.add(out_m, w0, out=out_m)  # mean = m2 + (m1 - m2) t + a phi
    np.multiply(m1, m1, out=out_v)
    np.add(out_v, v1, out=out_v)  # E[X1^2]
    np.multiply(m2, m2, out=w2)
    np.add(w2, v2, out=w2)  # E[X2^2]
    np.subtract(out_v, w2, out=out_v)
    np.multiply(out_v, w1, out=out_v)
    np.add(out_v, w2, out=out_v)  # E[X2^2] + (E[X1^2] - E[X2^2]) t
    np.add(m1, m2, out=w2)
    np.multiply(w2, w0, out=w2)
    np.add(out_v, w2, out=out_v)  # second moment
    np.multiply(out_m, out_m, out=w2)
    np.subtract(out_v, w2, out=out_v)
    np.maximum(out_v, 0.0, out=out_v)


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

    ``m`` and ``v`` must be freshly gathered (writable, caller-owned):
    each tournament round runs through pooled scratch and writes its
    winners back into the stacks' leading columns, so the reduction
    allocates nothing beyond the pool's grow-only backing.
    """
    n, p, b = m.shape
    if p <= 1:
        return m[:, 0], v[:, 0]
    # One take per buffer at the first round's (largest) width; later
    # rounds slice the same backing rather than re-entering the pool.
    om_f = pool.take("an_red_m", (n, p // 2, b))
    ov_f = pool.take("an_red_v", (n, p // 2, b))
    w0_f = pool.take("an_red_w0", (n, p // 2, b))
    w1_f = pool.take("an_red_w1", (n, p // 2, b))
    w2_f = pool.take("an_red_w2", (n, p // 2, b))
    while p > 1:
        half = p // 2
        om = om_f[:, :half]
        ov = ov_f[:, :half]
        ws = (w0_f[:, :half], w1_f[:, :half], w2_f[:, :half])
        _clark_max_into(m[:, :half], v[:, :half], m[:, half : 2 * half], v[:, half : 2 * half],
                        om, ov, ws)
        m[:, :half] = om
        v[:, :half] = ov
        if p % 2:
            m[:, half] = m[:, p - 1]
            v[:, half] = v[:, p - 1]
            p = half + 1
        else:
            p = half
    return m[:, 0], v[:, 0]


def _midpoint_quantile_grids(tensor: np.ndarray, q: int) -> np.ndarray:
    """``(K, N, Q)`` midpoint-quantile grids of a ``(K, S, N)`` sample tensor.

    The levels ``(i + 0.5) / Q`` are the mass centers of Q
    equal-probability bins, so grid mean/variance estimate each row's
    moments without the 0/1 endpoint blow-up of extreme order statistics.

    Element for element this is ``np.quantile(tensor, levels, axis=1)``
    (``method="linear"``): the same virtual index ``(S - 1) * level``,
    the same neighbours and the same two-sided lerp, one ufunc per step
    as NumPy applies them -- but read off ONE full sort of the sample
    axis, where ``np.quantile`` introselects around every one of the 2Q
    neighbour ranks in turn (10x the time at Q = 32).  An order
    statistic is the same number whichever algorithm ranked it, so the
    grids are ``array_equal`` to that call.  The sort runs in
    the tensor's own dtype; only the two gathered order statistics are
    upcast, so the grids are float64 and equal to those of
    ``tensor.astype(np.float64)``.
    """
    s = tensor.shape[1]
    virtual = (s - 1) * ((np.arange(q) + 0.5) / q)
    lower = np.floor(virtual)
    upper = lower + 1
    last = virtual >= s - 1  # only S == 1: both neighbours are the one sample
    lower[last] = upper[last] = -1
    lower = lower.astype(np.intp)
    upper = upper.astype(np.intp)
    t = (virtual - lower)[None, :, None]
    ranked = np.sort(tensor, axis=1)
    a = ranked.take(lower, axis=1).astype(np.float64)  # (K, Q, N)
    b = ranked.take(upper, axis=1).astype(np.float64)
    diff = b - a
    grids = a + diff * t
    np.subtract(b, diff * (1 - t), out=grids, where=t >= 0.5)
    return np.ascontiguousarray(grids.transpose(0, 2, 1))


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
        grids = _midpoint_quantile_grids(problem.tensor, self.QUANTILE_POINTS)
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

        The analytic counterpart of the MC backend's fused level kernel:
        identical gather structure (level-contiguous permutation, column
        takes for narrow fan-in, one 3-D gather for wide), but each lane
        carries a (mean, variance) pair instead of S samples.
        """
        block = as_block(states)
        b = len(block)
        n = problem.num_tasks
        if b == 0:
            return np.zeros(0), np.zeros(0)
        if n == 0:
            return np.zeros(b), np.zeros(b)
        mean_rows, var_rows = self._calibration(problem)
        assign = validated_assignments(problem, block)  # (B, N)
        sched = problem.levels

        perm_assign = assign.T.take(sched.order, axis=0)  # (N, B)
        idx = perm_assign * n + sched.order[:, None]  # (N, B) flat (type, task) ids
        m_lanes = mean_rows[idx]  # (N, B)
        v_lanes = var_rows[idx]
        fm = self.pool.take("an_finish_m", (n + 1, b))
        fv = self.pool.take("an_finish_v", (n + 1, b))
        fm[n] = 0.0  # the sentinel moments every padded parent slot reads
        fv[n] = 0.0
        for (lo, hi), gather, columns in zip(
            sched.level_bounds, sched.level_parents, sched.level_columns
        ):
            if gather.shape[1] == 0:
                fm[lo:hi] = m_lanes[lo:hi]
                fv[lo:hi] = v_lanes[lo:hi]
            elif columns is not None:
                rm, rv = self._join_columns(fm, fv, columns, hi - lo)
                np.add(rm, m_lanes[lo:hi], out=fm[lo:hi])
                np.add(rv, v_lanes[lo:hi], out=fv[lo:hi])
            else:
                # Big fan-in, few tasks: pairwise Clark tournament.
                rm, rv = _clark_reduce(fm[gather], fv[gather], self.pool)
                np.add(rm, m_lanes[lo:hi], out=fm[lo:hi])
                np.add(rv, v_lanes[lo:hi], out=fv[lo:hi])

        # Sink reduction: with non-negative task times every inner task's
        # finish is dominated by some sink's, so the makespan is the max
        # over sink rows alone (as in the Monte Carlo kernel).
        sinks = sched.sink_slots
        mm = fm[sinks[0]].copy()
        mv = fv[sinks[0]].copy()
        for t in sinks[1:]:
            mm, mv = clark_max(mm, mv, fm[t], fv[t])
        self.counters["states_analytic"] += b
        return mm, mv

    def _join_columns(
        self, fm: np.ndarray, fv: np.ndarray, columns, w: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clark-max of a narrow fan-in level's parent columns: ``(w, B)`` moments.

        Column 0 is always a real parent (levels > 0 hold only tasks
        with >= 1 parent); later columns may pad with the sentinel row
        ``n``, where the ready moments pass through exactly instead of
        Clark-maxing against N(0, 0).  All the intermediates live in
        pooled double buffers: the Clark steps here are the kernel's hot
        loop, and letting each one churn ~10 ufunc temporaries would
        dominate the per-state cost.
        """
        n, b = fm.shape[0] - 1, fm.shape[1]
        rm = self.pool.take("an_rm", (w, b))
        rv = self.pool.take("an_rv", (w, b))
        cm = self.pool.take("an_cm", (w, b))
        cv = self.pool.take("an_cv", (w, b))
        om = self.pool.take("an_om", (w, b))
        ov = self.pool.take("an_ov", (w, b))
        ws = (
            self.pool.take("an_ws0", (w, b)),
            self.pool.take("an_ws1", (w, b)),
            self.pool.take("an_ws2", (w, b)),
        )
        np.take(fm, columns[0], axis=0, mode="clip", out=rm)
        np.take(fv, columns[0], axis=0, mode="clip", out=rv)
        for col in columns[1:]:
            np.take(fm, col, axis=0, mode="clip", out=om)
            np.take(fv, col, axis=0, mode="clip", out=ov)
            _clark_max_into(rm, rv, om, ov, cm, cv, ws)
            pad = col == n
            if pad.any():
                cm[pad] = rm[pad]
                cv[pad] = rv[pad]
            rm, cm = cm, rm
            rv, cv = cv, rv
        return rm, rv

    def deadline_probabilities(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B,)`` analytic P(makespan <= deadline): a closed-form CDF."""
        return ndtr(self.deadline_z(problem, states))

    def deadline_z(self, problem: CompiledProblem, states) -> np.ndarray:
        """``(B,)`` standardized deadline slack ``(D - mean) / sd``.

        The screening cascade classifies in z-space rather than
        probability space: near certainty ``ndtr`` saturates (every
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
        z = ndtri((np.arange(q) + 0.5) / q)
        sd = np.sqrt(np.maximum(var, 0.0))
        return mean[:, None] + sd[:, None] * z[None, :]

    def evaluate_batch(self, problem: CompiledProblem, states) -> BatchEval:
        """Closed-form evaluation: Eq. 1 cost + normal-CDF probability."""
        block = as_block(states)
        if not len(block):
            return BatchEval.empty(0)
        mean, var = self.makespan_moments(problem, block)
        sd = np.sqrt(np.maximum(var, _MIN_VAR))
        return self._batch_eval(problem, block, ndtr((problem.deadline - mean) / sd), mean)

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
