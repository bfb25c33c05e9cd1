"""Search algorithms over provisioning-plan states.

:class:`GenericSearch` is the paper's Algorithm 2: traverse the state
space from an initial configuration, with state transitions driven by
the transformation operations (Promote toward feasibility, Demote
toward lower cost), evaluating every visited state with the compiled
probabilistic IR and keeping the best feasible solution.  As in the
paper, we choose *exploration* (frontier states expand independently
and are evaluated in batches -- the GPU-friendly layout) and prune
states that cannot improve on the incumbent (promoting only raises
cost, so any state already costlier than the best feasible solution is
dead -- the observation behind the paper's A* variant).

Expansion is *batched* and the beam is *arrays*: each iteration ranks
the frontier -- a :class:`~repro.solver.state.StateBlock` of states
plus the :class:`~repro.solver.state.BatchEval` vectors of their
evaluations -- by ``(priority, key)``, expands the top
``EXPAND_PER_ITER`` rows into one block of children (deduped against
the visited set), evaluates that block through the tiers of
:mod:`repro.solver.tiers` -- the paper's block-per-state GPU layout,
where every kernel launch carries many states -- and folds the results
into the incumbent and the frontier in child order.  No per-candidate
object is built: :class:`PlanState` / :class:`StateEval` exist for the
seeds and the returned plan only.  Priority and pruning semantics are
those of the one-state-at-a-time loop; only the evaluation granularity
changes.

:class:`AStarSearch` is a generic best-first A* over user-supplied
``g``/``h`` scores, used when a WLog program declares
``enabled(astar)`` (workflow-ensemble admission in the paper).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.common.errors import SolverError, ValidationError
from repro.solver.analytic_backend import AnalyticBackend
from repro.solver.backends import CompiledProblem, EvaluationBackend, VectorizedBackend
from repro.solver.cache import MakespanCache
from repro.solver.expand import EditMemo, expand_batch
from repro.solver.state import BatchEval, PlanState, StateBlock, StateEval
from repro.solver.tiers import AnalyticTier, Evaluator, MonteCarloTier, PrefixTier, Tier

__all__ = ["SearchResult", "GenericSearch", "LocalEvaluator", "AStarSearch", "AStarResult"]

@dataclass
class SearchResult:
    """Outcome of a generic search run.

    ``evaluations`` counts every candidate that consumed evaluation
    budget, whichever tier settled or discarded it.  The tier counters
    (``exact_evals`` ... ``analytic_accepted``, see the field comments)
    are the tiers' own (:mod:`repro.solver.tiers`); the cache counters
    are the evaluator's ``counters()``, so on a sharded solve
    they include the shards' work (zero on a backend that keeps no
    memos, such as :class:`~repro.solver.backends.ScalarBackend`).
    ``workers`` is the number of processes the evaluations ran on: 1
    for a serial solve and for a sharded engine whose pool downgraded.
    """

    best_state: PlanState
    best_eval: StateEval
    evaluations: int
    expansions: int
    feasible_found: bool
    trace: list[tuple[int, float]] = field(default_factory=list)
    cache_hits: int = 0    # makespan-cache hits during this solve
    cache_misses: int = 0  # makespan rows actually computed
    exact_evals: int = 0       # full-fidelity evaluations performed
    screen_evals: int = 0      # prefix-fidelity screenings performed
    screened_out: int = 0      # candidates discarded by the prefix screen
    analytic_evals: int = 0        # tier-0 analytic evaluations performed
    analytic_hits: int = 0         # tier-0 moment rows served from the memo
    analytic_screened_out: int = 0  # candidates settled clearly infeasible (no MC)
    analytic_accepted: int = 0      # candidates settled clearly feasible (no MC)
    workers: int = 1             # processes the evaluations ran on
    #: The cooperative watchdog fired: the wall-clock budget passed to
    #: :meth:`GenericSearch.solve` expired at an iteration boundary and
    #: the search returned its best incumbent before it stopped
    #: improving or hit its evaluation cap.  Always ``False`` on an
    #: unbounded solve.
    timed_out: bool = False

    def assignment_names(self, problem: CompiledProblem) -> dict[str, str]:
        """task id -> instance type name for the best state.

        The assignment follows ``task_ids`` order (the dense indices), so
        one array index names every task.
        """
        names = np.array(problem.catalog.type_names, dtype=object)[self.best_state.assignment]
        return dict(zip(problem.workflow.task_ids, names.tolist()))


class LocalEvaluator:
    """The in-process :class:`~repro.solver.tiers.Evaluator`.

    Wraps ``search``'s backend and its tier-0
    :class:`~repro.solver.analytic_backend.AnalyticBackend`, bound to
    one problem.  Shard workers run this same class on their chunk, so
    the sharded route computes every number the way the serial one
    does.
    """

    workers = 1

    def __init__(self, search: GenericSearch, problem: CompiledProblem):
        self.search = search
        self.problem = problem
        self._base = self._snapshot()

    def moments(self, block: StateBlock) -> tuple[np.ndarray, np.ndarray]:
        return self.search._analytic.makespan_moments(self.problem, block)

    def screen(self, block: StateBlock) -> np.ndarray:
        return self.search.backend.screen_probabilities(self.problem, block, PrefixTier.SAMPLES)

    def evaluate(self, block: StateBlock) -> BatchEval:
        return self.search.backend.evaluate_batch(self.problem, block)

    def _snapshot(self) -> dict[str, int]:
        snap = self.search.backend.counters_snapshot()
        snap.update(self.search._analytic.analytic_stats())
        return snap

    def counters(self) -> dict[str, int]:
        return {key: value - self._base.get(key, 0) for key, value in self._snapshot().items()}


class GenericSearch:
    """Transformation-driven search (paper Algorithm 2).

    Parameters
    ----------
    backend:
        Evaluation backend (vectorized "gpu" by default).
    max_evaluations:
        Cap on the state evaluations of one solve.
    analytic_min_tasks:
        Size gate of tier 0 (:class:`~repro.solver.tiers.AnalyticTier`):
        problems with fewer tasks never run it.  Setting it above a
        workflow's size gives the Monte-Carlo-only reference solve.

    Each iteration's batch passes the three tiers of
    :mod:`repro.solver.tiers` in order -- analytic, prefix screen, full
    Monte Carlo -- and is merged back in child order.  A solve ends when
    its frontier empties, when ``IDLE_ITERATIONS`` expanding iterations
    in a row improve no incumbent, or at ``max_evaluations``, whichever
    comes first: the beam finds its plan early, and the paper's run to
    the budget spends the rest finding nothing.

    The search outlives its solves: :attr:`moment_memo` keeps tier 0's
    ``(mean, variance)`` rows per ``(sample_token, state key)`` next to
    tier 0's evaluator, so a warm engine's later solves of the same
    sample tensor propagate only the states no earlier solve
    classified; :attr:`edit_memo` keeps every expanded parent's
    Promote/Demote edits the same way (:class:`~repro.solver.expand.EditMemo`),
    so they expand without a critical-path walk or a ranking.
    :meth:`forget` releases one token's share of these and of the
    backend's memos, :meth:`clear_caches` all of it.
    """

    #: Cap on transformation children generated per expansion; children
    #: are ranked by how much they are expected to help (critical-path
    #: time for Promote, cost saving for Demote).
    CHILDREN_PER_STATE = 12
    #: Frontier cap -- the exploration/exploitation balance knob.
    BEAM_WIDTH = 24
    #: How many beam states expand per iteration; their children are
    #: deduped and evaluated as one batch (block-per-state).
    EXPAND_PER_ITER = 8
    #: The search ends after this many consecutive expanding iterations
    #: (at least one child evaluated) improve no incumbent; an iteration
    #: whose children were all deduped neither counts nor resets.
    IDLE_ITERATIONS = 3

    def __init__(
        self,
        backend: EvaluationBackend | None = None,
        max_evaluations: int = 4000,
        analytic_min_tasks: int = 256,
    ):
        if max_evaluations < 1:
            raise SolverError("max_evaluations must be >= 1")
        if analytic_min_tasks < 0:
            raise SolverError("analytic_min_tasks must be >= 0")
        self.backend = backend or VectorizedBackend()
        self.max_evaluations = max_evaluations
        self.analytic_min_tasks = int(analytic_min_tasks)
        #: Tier 0's evaluator; it shares the main backend's
        #: :class:`~repro.solver.cache.ScratchPool` when it has one, so
        #: the cascade's tiers do not pin duplicate large buffers.
        self._analytic = AnalyticBackend(pool=self.backend.pool)
        self.moment_memo = MakespanCache()
        self.edit_memo = EditMemo()

    def evaluator(self, problem: CompiledProblem) -> LocalEvaluator:
        """A fresh in-process evaluator of ``problem`` (one per solve)."""
        return LocalEvaluator(self, problem)

    # ------------------------------------------------------------------

    def solve(
        self,
        problem: CompiledProblem,
        initial: PlanState | None = None,
        seeds: Iterable[PlanState] = (),
        evaluator: Evaluator | None = None,
        deadline_s: float | None = None,
    ) -> SearchResult:
        """Search for the cheapest plan meeting the deadline constraint.

        The initial state is all-cheapest (paper Fig. 5b); the uniform
        states of every type and any warm-start ``seeds`` (e.g. a
        heuristic baseline's plan, which the search then strictly
        improves) are evaluated with it.

        ``evaluator`` computes every per-candidate number (default: a
        fresh :class:`LocalEvaluator`; a
        :class:`~repro.solver.shards.ShardedEvaluator` spreads them over
        a worker pool).  Every decision is taken here, by the tiers, so
        the plan does not depend on which evaluator ran.

        ``deadline_s`` is the cooperative watchdog: a wall-clock budget
        (seconds from entry) checked between iterations, never inside
        one.  When it expires the search returns its best incumbent with
        ``SearchResult.timed_out = True``; a budget that never fires
        leaves the trajectory bit-identical.  ``None`` disables it.
        """
        if deadline_s is not None and not deadline_s > 0:
            raise ValidationError(f"deadline_s must be > 0 seconds, got {deadline_s!r}")
        t_deadline = time.monotonic() + float(deadline_s) if deadline_s is not None else None
        evaluator = evaluator or self.evaluator(problem)
        tiers = self._tiers(evaluator)
        seen, seed_states = self._seed_states(problem, initial, seeds)
        frontier = StateBlock.from_states(seed_states)
        _, evals = self._settle(problem, tiers[-1:], frontier, False)
        improved = self._improvements(evals, np.arange(1, len(frontier)), evals.take([0]))
        best = ([0] + improved)[-1]
        best_state, best_eval = frontier.take([best]), evals.take([best])
        evaluations, expansions, idle, timed_out = len(frontier), 0, 0, False
        trace = [(evaluations, self._trace_cost(best_eval))]

        while len(frontier) and evaluations < self.max_evaluations and idle < self.IDLE_ITERATIONS:
            if t_deadline is not None and time.monotonic() >= t_deadline:
                timed_out = True
                break
            ranked = self._rank(frontier, evals)[: self.BEAM_WIDTH]
            top, rest = ranked[: self.EXPAND_PER_ITER], ranked[self.EXPAND_PER_ITER :]
            expansions += len(top)
            parents = frontier.take(top)
            incumbent_feasible = bool(best_eval.feasible[0])
            # A candidate consumes budget whichever tier settles it, so
            # the budget trajectory does not depend on the tiers.
            children = expand_batch(
                problem, parents, evals.feasible[top], incumbent_feasible,
                self.CHILDREN_PER_STATE, seen, self.max_evaluations - evaluations,
                self.edit_memo,
            )
            evaluations += len(children)
            frontier, evals = frontier.take(rest), evals.take(rest)
            if not len(children):
                continue
            settled, child_evals = self._settle(problem, tiers, children, incumbent_feasible)
            # In child order: incumbent updates on exact-cost ties keep
            # the first-seen winner, whichever tier settled a candidate.
            merged = np.flatnonzero(settled)
            idle += 1
            for row in self._improvements(child_evals, merged, best_eval):
                best_state, best_eval = children.take([row]), child_evals.take([row])
                trace.append((evaluations, self._trace_cost(best_eval)))
                idle = 0
            # A feasible candidate is pruned (paper Section 5.3: promoting
            # only raises cost): it is now the incumbent, or the incumbent
            # is feasible and costs no more.  The infeasible ones join.
            joined = merged[~child_evals.feasible[merged]]
            frontier = StateBlock.concat([frontier, children.take(joined)])
            evals = BatchEval.concat([evals, child_evals.take(joined)])

        # A tier-0 incumbent is an exact *choice*; its reported numbers
        # come from tier 2, like every other returned plan's.
        if best_eval.source[0] == "analytic":
            _, best_eval = self._settle(problem, tiers[-1:], best_state, False)
        return SearchResult(
            best_state=best_state.state(0),
            best_eval=best_eval[0],
            evaluations=evaluations,
            expansions=expansions,
            feasible_found=bool(best_eval.feasible[0]),
            trace=trace,
            timed_out=timed_out,
            **self._counters(tiers, evaluator),
        )

    def _tiers(self, evaluator: Evaluator) -> tuple[Tier, Tier, Tier]:
        """Fresh tiers 0, 1 and 2 (their stand-downs and counts are per solve)."""
        return (
            AnalyticTier(evaluator, self.analytic_min_tasks, self.backend, self.moment_memo),
            PrefixTier(evaluator),
            MonteCarloTier(evaluator),
        )

    @staticmethod
    def _settle(
        problem: CompiledProblem, tiers: Sequence[Tier], batch: StateBlock,
        incumbent_feasible: bool,
    ) -> tuple[np.ndarray, BatchEval]:
        """Run ``batch`` through ``tiers`` in order.

        Returns which rows a tier settled and, in those rows, their
        evaluations (the other rows were discarded).
        """
        settled = np.zeros(len(batch), dtype=bool)
        evals = None
        live = np.arange(len(batch))
        for tier in tiers:
            if not len(live):
                break
            whole = len(live) == len(batch)
            done, found, survivors = tier.settle(
                problem, batch if whole else batch.take(live), incumbent_feasible
            )
            if whole and len(done) == len(batch):
                return np.ones(len(batch), dtype=bool), found
            if len(done):
                if evals is None:
                    evals = BatchEval.empty(len(batch))
                evals.put(live[done], found)
                settled[live[done]] = True
            live = live[survivors]
        return settled, BatchEval.empty(len(batch)) if evals is None else evals

    @staticmethod
    def _improvements(evals: BatchEval, rows: np.ndarray, incumbent: BatchEval) -> list[int]:
        """The ``rows`` that, in order, each beat the incumbent of their time.

        Feasibility first, then the lower cost (feasible) or the higher
        probability (infeasible) -- :meth:`StateEval.better_than` -- and
        a tie keeps the incumbent.  Only rows better than ``incumbent``
        itself can qualify, so only those are walked.
        """
        feasible = bool(incumbent.feasible[0])
        cost = float(incumbent.cost[0])
        prob = float(incumbent.probability[0])
        f, c, p = evals.feasible[rows], evals.cost[rows], evals.probability[rows]
        maybe = f & (c < cost) if feasible else f | (p > prob)
        out: list[int] = []
        if not maybe.any():
            return out
        for row, fi, ci, pi in zip(
            rows[maybe].tolist(), f[maybe].tolist(), c[maybe].tolist(), p[maybe].tolist()
        ):
            if fi > feasible or (fi == feasible and (ci < cost if fi else pi > prob)):
                out.append(row)
                feasible, cost, prob = fi, ci, pi
        return out

    @staticmethod
    def _trace_cost(ev: BatchEval) -> float:
        return float(ev.cost[0]) if ev.feasible[0] else float("inf")

    @staticmethod
    def _counters(tiers: Sequence[Tier], evaluator: Evaluator) -> dict[str, int]:
        """The integer ``SearchResult`` fields: tier counts and evaluator work."""
        work = evaluator.counters()
        counts = {key: value for tier in tiers for key, value in tier.counts.items()}
        counts.update(
            cache_hits=work.get("makespan_hits", 0),
            cache_misses=work.get("makespan_misses", 0),
            workers=evaluator.workers,
        )
        return counts

    def _seed_states(
        self, problem: CompiledProblem, initial: PlanState | None, seeds: Iterable[PlanState]
    ) -> tuple[set[bytes], list[PlanState]]:
        """The visited set and the deduped seed states, in order."""
        n = problem.num_tasks
        start = initial or PlanState.uniform(n, 0)
        candidates = [start] + [PlanState.uniform(n, t) for t in range(problem.num_types)]
        seen: set[bytes] = set()
        states: list[PlanState] = []
        for st in candidates + list(seeds):
            if len(st) != n:
                raise SolverError(f"seed state has {len(st)} tasks, problem has {n}")
            if st.key not in seen:
                seen.add(st.key)
                states.append(st)
        return seen, states

    # ------------------------------------------------------------------

    def forget(self, token: int) -> None:
        """Drop every memo entry of sample token ``token``: the backend's,
        tier 0's calibration, the moment memo's rows and the edit memo's."""
        self.moment_memo.forget(token)
        self.edit_memo.forget(token)
        self.backend.forget(token)
        self._analytic.forget(token)

    def clear_caches(self) -> None:
        """Drop the backend's memos and buffers, tier 0's calibrations, the
        moment memo and the edit memo."""
        self.moment_memo.clear()
        self.edit_memo.clear()
        self.backend.release_buffers()
        self._analytic.release_buffers()

    def cache_stats(self) -> dict[str, dict]:
        """``moments`` and ``expansions`` (the tier-0 memo's and the edit
        memo's counters plus ``nbytes``) and, once tier 0 ran,
        ``analytic``: its work counters and calibrations."""
        stats = {
            name: {**memo.counters(), "nbytes": memo.nbytes()}
            for name, memo in (("moments", self.moment_memo), ("expansions", self.edit_memo))
        }
        if self.moment_memo.hits or self.moment_memo.misses:  # tier 0 has run
            stats.update(self._analytic.cache_stats())
        return stats

    @staticmethod
    def _rank(block: StateBlock, evals: BatchEval) -> np.ndarray:
        """Frontier order of ``block``'s rows: priority, then assignment bytes.

        Priority puts feasible cheap states first (cost, then higher
        probability), then near-feasible ones (probability, then cost).
        The byte tiebreak makes the ranking a function of the frontier
        *set*: two rows never compare equal (state keys are unique
        within a frontier), so the order -- and with it every
        beam/expansion cut -- is independent of row order.  That is what
        lets the sharded merge concatenate chunk results in any grouping
        and still reproduce the serial beam exactly.
        """
        feasible, cost, prob = evals.feasible, evals.cost, evals.probability
        # Row bytes as one fixed-width string each: compared byte by byte,
        # like the ``bytes`` keys.
        n = block.num_tasks
        keys = block.assign.view(f"S{2 * n}")[:, 0] if n else np.zeros(len(block))
        return np.lexsort(
            (keys, np.where(feasible, -prob, cost), np.where(feasible, cost, -prob), ~feasible)
        )


# ---------------------------------------------------------------------------
# A* search (enabled(astar) with user g/h scores)
# ---------------------------------------------------------------------------


@dataclass
class AStarResult:
    """Outcome of an A* run."""

    best_state: Hashable
    best_f: float
    expanded: int
    visited: int
    found_goal: bool


class AStarSearch:
    """Best-first A* over user-supplied scores.

    Generic over any hashable state; the paper's usage supplies
    ``cal_g_score``/``est_h_score`` from the WLog program (both mapped
    to estimated monetary cost in Example 1's extension, and to the
    ensemble Score metric in use case 2).
    """

    def __init__(self, max_expansions: int = 100_000):
        if max_expansions < 1:
            raise SolverError("max_expansions must be >= 1")
        self.max_expansions = max_expansions

    def solve(
        self,
        initial: Hashable,
        neighbors: Callable[[Hashable], Iterable[Hashable]],
        g_score: Callable[[Hashable], float],
        h_score: Callable[[Hashable], float],
        is_goal: Callable[[Hashable], bool],
    ) -> AStarResult:
        """Minimize ``g + h`` until the first goal state is popped.

        With an admissible ``h`` the first goal popped is optimal; with
        the paper's heuristic (h = current cost estimate) the search
        degrades gracefully to greedy best-first, which is the behaviour
        the paper exploits for pruning.
        """
        counter = itertools.count()
        open_heap: list[tuple[float, int, Hashable]] = []
        g0, h0 = g_score(initial), h_score(initial)
        heapq.heappush(open_heap, (g0 + h0, next(counter), initial))
        closed: set[Hashable] = set()
        best_state, best_f, found = initial, g0 + h0, is_goal(initial)
        expanded = 0

        while open_heap and expanded < self.max_expansions:
            f, _, state = heapq.heappop(open_heap)
            if state in closed:
                continue
            closed.add(state)
            expanded += 1
            if is_goal(state):
                return AStarResult(state, f, expanded, len(closed), True)
            for nxt in neighbors(state):
                if nxt in closed:
                    continue
                nf = g_score(nxt) + h_score(nxt)
                heapq.heappush(open_heap, (nf, next(counter), nxt))
                if nf < best_f:
                    best_state, best_f = nxt, nf

        # Budget exhausted.  The best tracked state may be a goal that
        # was pushed but never popped; report it as found rather than
        # freezing ``found`` at is_goal(initial).
        return AStarResult(
            best_state, best_f, expanded, len(closed), found or is_goal(best_state)
        )
