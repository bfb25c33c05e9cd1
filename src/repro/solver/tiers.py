"""The evaluation cascade of one beam iteration: three tiers, one evaluator.

:meth:`GenericSearch.solve` hands each iteration's candidates -- one
:class:`~repro.solver.state.StateBlock` -- to tier 0
(:class:`AnalyticTier`), tier 1 (:class:`PrefixTier`) and tier 2
(:class:`MonteCarloTier`) in turn.  ``settle(problem, batch,
incumbent_feasible)`` returns ``(settled, evals, survivors)``: the rows
of ``batch`` the tier decided, their :class:`~repro.solver.state.BatchEval`,
and the rows the next tier sees; a row in neither was discarded.  The
tiers take every number from an :class:`Evaluator` -- in process, or
sharded over worker processes that each run the in-process one -- and
make every decision themselves, so the route the numbers took cannot
move a plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.solver.state import BatchEval, StateBlock

if TYPE_CHECKING:
    from repro.solver.backends import CompiledProblem, EvaluationBackend
    from repro.solver.cache import MakespanCache

__all__ = ["Evaluator", "Tier", "AnalyticTier", "PrefixTier", "MonteCarloTier"]

#: ``(settled rows, their evaluations, surviving rows)`` of one tier.
Settled = tuple[np.ndarray, BatchEval, np.ndarray]


_NONE = np.empty(0, dtype=np.intp)
_NONE.setflags(write=False)
_NO_EVALS = BatchEval.empty(0)


def _passed(batch: StateBlock) -> Settled:
    """Nothing settled, every row survives."""
    return _NONE, _NO_EVALS, np.arange(len(batch))


class Evaluator(Protocol):
    """Per-candidate numbers for one solve's problem, a block at a time.

    Each call takes a :class:`~repro.solver.state.StateBlock` and returns
    one value per row.  Each value is a function of (problem, state)
    alone, so any chunking of a block, evaluated anywhere, concatenates
    back to the same numbers.  ``counters()`` is the work (cache and
    tier-0 counters) done since the evaluator was built; an evaluator
    serves one solve.  ``workers`` is the processes its calls ran on.
    """

    @property
    def workers(self) -> int: ...

    def moments(self, block: StateBlock) -> tuple[np.ndarray, np.ndarray]:
        """Tier 0: analytic makespan ``(mean, variance)`` per row."""
        ...

    def screen(self, block: StateBlock) -> np.ndarray:
        """Tier 1: deadline probability over the first ``PrefixTier.SAMPLES`` draws."""
        ...

    def evaluate(self, block: StateBlock) -> BatchEval:
        """Tier 2: full-fidelity evaluations."""
        ...

    def counters(self) -> dict[str, int]: ...


class Tier(Protocol):
    """One fidelity level; ``counts`` are its ``SearchResult`` fields."""

    counts: dict[str, int]

    def settle(
        self, problem: CompiledProblem, batch: StateBlock, incumbent_feasible: bool
    ) -> Settled: ...


class _ScreenTier:
    """A tier that settles or discards part of a batch before full Monte Carlo.

    Gate: a feasible incumbent (the screen compares against a requirement
    some state already meets, which also makes the assignment-free
    reliability constraint satisfiable), at least :attr:`MIN_BATCH`
    candidates to amortize the pass, and the tier's own :meth:`applies`.
    Stand-down: after :attr:`DRY_LIMIT` consecutive batches it took
    nothing out of, the tier stays off for the rest of the solve -- near
    convergence every candidate is a one-step edit of a feasible state.
    Both count outcomes only, so the trajectory is run-to-run stable.
    """

    DRY_LIMIT = 2
    MIN_BATCH = 4

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator
        self.dry = 0
        self.counts: dict[str, int] = {}

    def applies(self, problem: CompiledProblem) -> bool:
        raise NotImplementedError

    def _classify(self, problem: CompiledProblem, batch: StateBlock) -> Settled:
        raise NotImplementedError

    def settle(
        self, problem: CompiledProblem, batch: StateBlock, incumbent_feasible: bool
    ) -> Settled:
        if (
            self.dry >= self.DRY_LIMIT
            or not incumbent_feasible
            or len(batch) < self.MIN_BATCH
            or not self.applies(problem)
        ):
            return _passed(batch)
        settled = self._classify(problem, batch)
        self.dry = 0 if len(settled[2]) < len(batch) else self.dry + 1
        return settled


class AnalyticTier(_ScreenTier):
    """Tier 0: two-sided analytic classification, no sampling at all.

    Candidates get moment-propagated makespans
    (:class:`~repro.solver.analytic_backend.AnalyticBackend`) and are
    classified on the standardized slack ``z = (D - mean) / sd`` against
    ``z_req = ndtri(required_probability)``: ``z <= z_req - MARGIN`` is
    *settled infeasible*, ``z >= z_req + ACCEPT_MARGIN`` *settled
    feasible*, anything between survives to the Monte Carlo tiers, which
    alone replicate sampling noise at the boundary.

    Settled candidates are not dropped: they join the frontier with a
    closed-form evaluation (``source="analytic"``).  Sound
    because the Eq.-1 cost is deterministic (mean times x prices):
    feasibility is all sampling decides, so incumbent updates and
    pruning stay exact and only the order *among clearly-infeasible
    states* rests on analytic numbers.  A settled incumbent is
    re-refereed by tier 2 before the solve returns it.

    The margins are in standard-normal units, calibrated on full cascade
    trajectories: over Montage-1/4/8 x 5 seeds the worst MC-feasible
    state sat at ``z - z_req = -0.025``, ~10x inside the reject margin
    (DESIGN.md §11; the probability error is bounded by
    ``tests/solver/test_analytic_backend.py::TestErrorBound``).  The
    classification sd is floored at ``SD_FLOOR`` of the mean, so a
    sub-percent Clark mean bias on near-deterministic workflows (LIGO
    chains) cannot masquerade as many sigmas; when even the batch
    *median* sd is below that floor, MC probabilities are degenerate 0/1
    and the tier stands down for good.  The tier is an approximation, so
    it keeps a reference: ``test_cascade_identity_montage8`` solves with
    ``analytic_min_tasks`` above the workflow's size and expects the
    same plan.

    Moments come through ``memo``, the search's
    :class:`~repro.solver.cache.MakespanCache` of ``(mean, variance)``
    rows keyed by ``(sample_token, state key)``: they depend on the
    sample tensor and the assignment, not on the deadline or
    percentile, so a warm sweep asks the evaluator only for the rows no
    earlier solve of that tensor computed (``analytic_hits`` counts the
    others).
    """

    MARGIN = 0.3
    ACCEPT_MARGIN = 1.5
    SD_FLOOR = 0.02

    def __init__(
        self, evaluator: Evaluator, min_tasks: int, backend: EvaluationBackend,
        memo: MakespanCache,
    ):
        super().__init__(evaluator)
        self.min_tasks = min_tasks
        self.backend = backend
        self.memo = memo
        self.counts = {
            "analytic_evals": 0, "analytic_hits": 0,
            "analytic_screened_out": 0, "analytic_accepted": 0,
        }

    @staticmethod
    def static_gate(problem: CompiledProblem, min_tasks: int, backend: EvaluationBackend) -> bool:
        """The gates that depend on the problem alone, not on the search.

        At least ``min_tasks`` tasks (below the measured crossover full
        Monte Carlo is already so cheap the pass nets out negative:
        Montage-4/240 tasks ~0.9x, Montage-8/680 tasks 2-3x), a finite
        required quantile (a 100th-percentile deadline needs every sample
        to meet it, which no normal surrogate can certify), and a main
        backend that is not itself analytic.
        """
        return (
            problem.num_tasks >= min_tasks
            and 0.0 < problem.required_probability < 1.0
            and backend.name != "analytic"
        )

    def applies(self, problem: CompiledProblem) -> bool:
        return self.static_gate(problem, self.min_tasks, self.backend)

    def _classify(self, problem: CompiledProblem, batch: StateBlock) -> Settled:
        # SciPy loads with the tier: a solve below the size gate imports none of it.
        from repro.solver.analytic_backend import ndtr, ndtri

        hits = self.memo.hits
        rows = self.memo.fetch(
            problem, batch, lambda _, missing: np.stack(self.evaluator.moments(missing), axis=1)
        )
        self.counts["analytic_hits"] += self.memo.hits - hits
        mean, var = np.ascontiguousarray(rows.T)
        sd = np.sqrt(np.maximum(var, 0.0))
        floor = self.SD_FLOOR * np.abs(mean)
        if float(np.median(sd)) < float(np.median(floor)):
            self.dry = self.DRY_LIMIT  # near-deterministic makespans: off for good
            return _passed(batch)
        np.maximum(sd, floor, out=sd)
        z = (problem.deadline - mean) / np.maximum(sd, 1e-9)
        self.counts["analytic_evals"] += len(batch)
        z_req = float(ndtri(problem.required_probability))
        decided = (z <= z_req - self.MARGIN) | (z >= z_req + self.ACCEPT_MARGIN)
        if not decided.any():
            return _passed(batch)
        idx = np.flatnonzero(decided)
        feasible = z[idx] >= z_req
        accepted = int(np.count_nonzero(feasible))
        self.counts["analytic_accepted"] += accepted
        self.counts["analytic_screened_out"] += len(idx) - accepted
        evals = BatchEval(
            problem.expected_cost_batch(batch.assign[idx]),
            ndtr(z[idx]),
            feasible,
            mean[idx],
            np.full(len(idx), "analytic"),
        )
        return idx, evals, np.flatnonzero(~decided)


class PrefixTier(_ScreenTier):
    """Tier 1: a prefix-fidelity screen over tier 0's survivors.

    Candidates are evaluated on the first :attr:`SAMPLES` Monte Carlo
    draws -- the same draws for every state (common random numbers) --
    and *discarded* when that probability trails the requirement by more
    than :attr:`MARGIN` (~5 binomial standard errors at 32 draws, so
    only candidates hopeless at full fidelity too are dropped).  Needs a
    sample budget the prefix meaningfully undercuts.
    """

    SAMPLES = 32
    MARGIN = 0.25

    def __init__(self, evaluator: Evaluator):
        super().__init__(evaluator)
        self.counts = {"screen_evals": 0, "screened_out": 0}

    def applies(self, problem: CompiledProblem) -> bool:
        return problem.num_samples >= 2 * self.SAMPLES

    def _classify(self, problem: CompiledProblem, batch: StateBlock) -> Settled:
        probs = self.evaluator.screen(batch)
        self.counts["screen_evals"] += len(batch)
        survivors = np.flatnonzero(probs + self.MARGIN >= problem.required_probability)
        self.counts["screened_out"] += len(batch) - len(survivors)
        return _NONE, _NO_EVALS, survivors


class MonteCarloTier:
    """Tier 2: full-fidelity Monte Carlo, the referee; settles everything.

    The whole batch goes to the evaluator in one call, which the
    vectorized backend runs as one kernel launch (one thread block per
    state, in the paper's terms).
    """

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator
        self.counts = {"exact_evals": 0}

    def settle(
        self, problem: CompiledProblem, batch: StateBlock, incumbent_feasible: bool
    ) -> Settled:
        evals = self.evaluator.evaluate(batch)
        self.counts["exact_evals"] += len(batch)
        return np.arange(len(batch)), evals, _NONE
