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

Expansion is *batched*: each iteration takes the top
``expand_per_iter`` beam states, generates all their transformation
children, dedupes them against the visited set, and evaluates the
union as **one** backend batch -- the paper's block-per-state GPU
layout, where every kernel launch carries many states.  Priority and
pruning semantics are those of the one-state-at-a-time loop; only the
evaluation granularity changes.

:class:`AStarSearch` is a generic best-first A* over user-supplied
``g``/``h`` scores, used when a WLog program declares
``enabled(astar)`` (workflow-ensemble admission in the paper).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable

import numpy as np

from repro.common.errors import SolverError, ValidationError
from repro.solver.backends import CompiledProblem, EvaluationBackend, VectorizedBackend
from repro.solver.expand import expand_batch
from repro.solver.state import PlanState, StateEval

if TYPE_CHECKING:  # import cycle guard (shards import the worker module)
    from repro.solver.shards import ShardedEvaluator


__all__ = ["SearchResult", "GenericSearch", "AStarSearch", "AStarResult"]


@dataclass
class SearchResult:
    """Outcome of a generic search run.

    ``evaluations`` counts every candidate that consumed evaluation
    budget -- including candidates the fidelity screens discarded, so
    the budget trajectory does not depend on which tier settled a
    candidate.  ``exact_evals`` is the subset actually
    evaluated at full Monte Carlo fidelity; ``screen_evals`` the
    prefix-fidelity screenings; ``screened_out`` the candidates the
    prefix screen discarded.  ``analytic_evals`` / ``analytic_screened_out`` /
    ``analytic_accepted`` are the tier-0 analytic cascade's
    counterparts: candidates the moment-propagation tier evaluated,
    settled as clearly infeasible, or settled as clearly feasible --
    settled either way means no Monte Carlo was spent on them (zero
    when the tier never activated).  The ``states_incremental`` /
    ``levels_skipped`` / ``levels_total`` / ``rows_recomputed`` /
    ``rows_total`` counters come from the backend's delta-propagation
    path (zero when the backend has no
    :class:`~repro.solver.cache.EvalContext`).

    On a sharded solve (``workers > 1``) the cache and delta counters
    aggregate the per-shard deltas each worker reports, so sharded and
    serial solves report comparable work totals.  All *trajectory*
    counters (evaluations, expansions, the tier counters,
    ``screened_out``) are parent-side decisions over the per-candidate
    numbers the shards return.  ``workers`` is the number of shard
    processes the solve dispatched to: 1 for a serial solve and for a
    sharded engine whose pool downgraded to in-process evaluation.
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
    analytic_screened_out: int = 0  # candidates settled clearly infeasible (no MC)
    analytic_accepted: int = 0      # candidates settled clearly feasible (no MC)
    states_incremental: int = 0  # states evaluated via delta propagation
    levels_skipped: int = 0      # level recomputations the delta path avoided
    levels_total: int = 0        # level recomputations a full pass would do
    rows_recomputed: int = 0     # task rows actually re-propagated
    rows_total: int = 0          # task rows a full pass would propagate
    workers: int = 1             # shard processes the solve dispatched to
    #: The cooperative watchdog fired: the wall-clock budget passed to
    #: :meth:`GenericSearch.solve` expired at an iteration boundary and
    #: the search returned its best incumbent instead of running the
    #: evaluation budget dry.  Always ``False`` on an unbounded solve.
    timed_out: bool = False

    def assignment_names(self, problem: CompiledProblem) -> dict[str, str]:
        """task id -> instance type name for the best state."""
        names = problem.catalog.type_names
        wf = problem.workflow
        return {tid: names[int(self.best_state.assignment[wf.index_of(tid)])] for tid in wf.task_ids}


class GenericSearch:
    """Transformation-driven search (paper Algorithm 2).

    Parameters
    ----------
    backend:
        Evaluation backend (vectorized "gpu" by default).
    children_per_state:
        Cap on transformation children generated per expansion; children
        are ranked by how much they are expected to help (critical-path
        time for Promote, cost saving for Demote).
    beam_width:
        Frontier cap -- the exploration/exploitation balance knob.
    max_evaluations:
        Total state-evaluation budget.
    expand_per_iter:
        How many beam states expand per iteration; their children are
        deduped and evaluated as one backend batch (block-per-state).
    screen_samples / screen_margin:
        Tier 1 of the cascade.  Parent finish-time frontiers are pinned
        before expansion (so children take the backend's
        delta-propagation path, bit-identical to the full kernel), and
        candidates are first evaluated on the first ``screen_samples``
        Monte Carlo draws (the same draws for every state -- common
        random numbers) and discarded when that screened deadline
        probability trails the requirement by more than
        ``screen_margin``.  The margin is deliberately generous
        (~5 binomial standard errors at the default prefix), so only
        candidates that are hopeless at full fidelity too are dropped;
        survivors -- and therefore the returned winner -- are always
        re-evaluated at full fidelity.
    analytic_margin / analytic_accept_margin:
        Tier 0 of the three-tier cascade (analytic -> prefix MC ->
        full MC): before the prefix screen, candidates are evaluated by
        the moment-propagation
        :class:`~repro.solver.analytic_backend.AnalyticBackend` (no
        sampling at all) and classified **two-sided** on the
        standardized deadline slack ``z = (D - mean) / sd`` against the
        required quantile ``z_req = ndtri(required_probability)``:

        * ``z <= z_req - analytic_margin`` -- *settled infeasible*:
          clearly hopeless, no Monte Carlo spent;
        * ``z >= z_req + analytic_accept_margin`` -- *settled
          feasible* (*accepted*), no Monte Carlo spent;
        * otherwise -- *ambiguous*: falls through to the Monte Carlo
          tiers, which alone replicate sampling noise at the
          feasibility boundary.

        Settled candidates are not dropped: they join the frontier
        with a closed-form :class:`StateEval` (``source="analytic"``),
        so frontier membership -- and therefore the exploration
        structure -- is unchanged by the tier.  This is sound because
        the Eq.-1 cost is deterministic (mean times x prices):
        feasibility is the *only* thing sampling contributes to the
        search's decisions, so a settled state's incumbent updates and
        pruning tests are exact, and only the expansion *order among
        clearly-infeasible states* (a probability tie-break far from
        the boundary) rests on analytic numbers.

        Both margins are in standard-normal units, calibrated against
        the measured analytic-vs-MC classification boundary on full
        cascade trajectories over the workflow catalog: across 15
        searches (Montage-1/4/8 x 5 seeds) the worst MC-feasible state
        sat at ``z - z_req = -0.025``, ~10x inside the default reject
        margin of 0.3 (DESIGN.md §11; the raw analytic-vs-MC
        probability error is bounded by
        ``tests/solver/test_analytic_backend.py::TestErrorBound``).
        ``analytic_sd_floor`` guards the z-space test on
        near-deterministic workflows: the classification sd is floored
        at that fraction of the analytic mean, so a margin of ``m``
        always demands at least ``m * floor`` *relative* slack and a
        sub-percent Clark mean bias (makespan cv << 1%, e.g.
        LIGO-style chain ensembles)
        cannot masquerade as many sigmas -- and when even the batch
        *median* sd falls below the floor, the tier stands down for
        good rather than mirror degenerate 0/1 Monte Carlo
        probabilities with a continuous surrogate.  The same
        feasible-incumbent gate and dry-batch standdown as the prefix
        screen apply.  The tier is an approximation, so it keeps a
        reference comparison: ``test_cascade_identity_montage8`` solves
        once with ``analytic_min_tasks`` above the workflow's size and
        expects the same plan.  The tier gates itself off when the main
        backend is already analytic, when the problem has fewer than
        ``analytic_min_tasks`` tasks (the delta-MC path is already
        cheap there; the tier measured net-negative on Montage-1/4),
        and when ``required_probability`` is 0 or 1 (``z_req`` is not
        finite there -- e.g. a 100th-percentile deadline demands
        *every* sample meet it, which no normal surrogate can
        certify).
    """

    #: Consecutive no-reject batches after which a screening tier
    #: stands down (near convergence the passes are pure overhead).
    _DRY_SCREEN_LIMIT = 2

    def __init__(
        self,
        backend: EvaluationBackend | None = None,
        children_per_state: int = 12,
        beam_width: int = 24,
        max_evaluations: int = 4000,
        expand_per_iter: int = 8,
        screen_samples: int = 32,
        screen_margin: float = 0.25,
        analytic_margin: float = 0.3,
        analytic_accept_margin: float = 1.5,
        analytic_sd_floor: float = 0.02,
        analytic_min_tasks: int = 256,
    ):
        if (
            children_per_state < 1
            or beam_width < 1
            or max_evaluations < 1
            or expand_per_iter < 1
        ):
            raise SolverError("search parameters must be >= 1")
        if screen_samples < 1:
            raise SolverError("screen_samples must be >= 1")
        if screen_margin < 0:
            raise SolverError("screen_margin must be >= 0")
        if analytic_margin < 0 or analytic_accept_margin < 0:
            raise SolverError("analytic margins must be >= 0")
        if analytic_sd_floor < 0:
            raise SolverError("analytic_sd_floor must be >= 0")
        if analytic_min_tasks < 0:
            raise SolverError("analytic_min_tasks must be >= 0")
        self.backend = backend or VectorizedBackend()
        self.children_per_state = children_per_state
        self.beam_width = beam_width
        self.max_evaluations = max_evaluations
        self.expand_per_iter = expand_per_iter
        self.screen_samples = int(screen_samples)
        self.screen_margin = float(screen_margin)
        self.analytic_margin = float(analytic_margin)
        self.analytic_accept_margin = float(analytic_accept_margin)
        self.analytic_sd_floor = float(analytic_sd_floor)
        self.analytic_min_tasks = int(analytic_min_tasks)
        self._analytic: EvaluationBackend | None = None

    # ------------------------------------------------------------------

    def solve(
        self,
        problem: CompiledProblem,
        initial: PlanState | None = None,
        seeds: Iterable[PlanState] = (),
        distributor: "ShardedEvaluator | None" = None,
        deadline_s: float | None = None,
    ) -> SearchResult:
        """Search for the cheapest plan meeting the deadline constraint.

        The initial state is all-cheapest (paper Fig. 5b); the uniform
        states of every type are evaluated as additional seeds, and
        callers may pass extra warm-start ``seeds`` (e.g. a heuristic
        baseline's plan, which the search then strictly improves).

        ``distributor`` (a
        :class:`~repro.solver.shards.ShardedEvaluator`) shards each
        iteration's candidate batch across the engine's worker pool.
        Shards compute only pure per-candidate numbers; every decision
        stays here, so a cold sharded solve returns the cold serial
        solve's plan (asserted by the shard test matrix); one whose
        pool downgraded to in-process evaluation is ignored.

        ``deadline_s`` is the cooperative watchdog: a wall-clock budget
        (seconds, measured on the monotonic clock from entry) checked at
        every iteration boundary.  When it expires the search stops
        expanding and returns its best incumbent with
        ``SearchResult.timed_out = True`` -- a hung or oversized solve
        degrades to best-effort instead of wedging its worker.  The
        check sits *between* iterations, never inside one, so a budget
        ample enough that it never fires leaves the trajectory (and the
        returned plan) bit-identical to the unbounded solve; an
        undersized budget still returns a valid (often feasible, thanks
        to the warm-start seeds) incumbent.  ``None`` disables it.
        """
        if deadline_s is not None and not deadline_s > 0:
            raise ValidationError(f"deadline_s must be > 0 seconds, got {deadline_s!r}")
        t_deadline = (
            time.monotonic() + float(deadline_s) if deadline_s is not None else None
        )
        n = problem.num_tasks
        k = problem.num_types
        start = initial or PlanState.uniform(n, 0)
        seed_states = [start] + [PlanState.uniform(n, t) for t in range(k)] + list(seeds)
        # Dedupe while preserving order.
        seen: set[bytes] = set()
        frontier_states: list[PlanState] = []
        for st in seed_states:
            if len(st) != n:
                raise SolverError(f"seed state has {len(st)} tasks, problem has {n}")
            if st.key not in seen:
                seen.add(st.key)
                frontier_states.append(st)

        cache = getattr(self.backend, "cache", None)
        hits0, misses0 = (cache.hits, cache.misses) if cache else (0, 0)
        delta0 = dict(getattr(self.backend, "delta_counters", None) or {})

        if distributor is not None and not distributor.is_serial:
            evals = distributor.eval_round(frontier_states)
        else:
            evals = self.backend.evaluate_batch(problem, frontier_states)
        evaluations = len(frontier_states)
        exact_evals = len(frontier_states)
        screen_evals = 0
        screened_out = 0
        analytic_evals = 0
        analytic_screened_out = 0
        analytic_accepted = 0
        best_state, best_eval = None, None
        for st, ev in zip(frontier_states, evals):
            if ev.better_than(best_eval):
                best_state, best_eval = st, ev
        assert best_state is not None and best_eval is not None

        frontier: list[tuple[PlanState, StateEval]] = list(zip(frontier_states, evals))
        trace = [(evaluations, best_eval.cost if best_eval.feasible else float("inf"))]
        expansions = 0
        dry_screens = 0
        dry_analytic = 0
        timed_out = False

        while frontier and evaluations < self.max_evaluations:
            if t_deadline is not None and time.monotonic() >= t_deadline:
                # Iteration-boundary check only: an in-flight batch is
                # never abandoned halfway, so every number already on
                # the frontier is exact and the incumbent is a plan the
                # unbounded search would also have visited.
                timed_out = True
                break
            # Stable total order: priority first, assignment bytes as
            # the tiebreak, so the ranking is a function of the
            # frontier *set* -- never of the insertion order a shard
            # merge (or any future refactor) might perturb.
            frontier.sort(key=self._frontier_key)
            frontier = frontier[: self.beam_width]
            batch = frontier[: self.expand_per_iter]
            frontier = frontier[self.expand_per_iter :]
            dist = (
                distributor
                if distributor is not None and not distributor.is_serial
                else None
            )

            # Children of every expanded state (one array pass), deduped
            # against the visited set, form one backend batch
            # (block-per-state).
            children: list[PlanState] = []
            expansions += len(batch)
            for kids in expand_batch(
                problem, batch, best_eval.feasible, self.children_per_state
            ):
                for c in kids:
                    if c.key not in seen:
                        seen.add(c.key)
                        children.append(c)
            if not children:
                continue
            budget = self.max_evaluations - evaluations
            children = children[:budget]
            # Every candidate consumes budget whether or not a screen
            # later discards it, so the budget trajectory does not
            # depend on which tier settles a candidate.
            evaluations += len(children)

            settled: dict[bytes, StateEval] = {}

            # Tier 0: two-sided analytic classification (no sampling).
            # The gating logic mirrors the prefix screen below -- only
            # active once a feasible incumbent exists -- with its own
            # dry-batch standdown.  Classification happens on the
            # standardized slack z (see the class docstring): the
            # calibrated margins absorb the independence/normal
            # approximation error, so a settled candidate's *feasible*
            # flag matches what full-fidelity MC would have concluded.
            # Settled candidates skip the Monte Carlo tiers entirely
            # but stay in the search: because the Eq.-1 cost is
            # deterministic, a settled StateEval drives the exact same
            # incumbent/prune decisions the MC one would, and only the
            # frontier ordering *among clearly-infeasible states* (a
            # probability tie-break) rests on the analytic numbers.
            survivors = list(children)

            # Distributed round A: tier-0 moments and tier-1 prefix
            # probabilities ride ONE sharded barrier.  Sound because
            # both are pure per-candidate values: the parent runs the
            # global classification below on the concatenated moments,
            # and subsets the precomputed probabilities to the tier-0
            # survivors -- bitwise the serial cascade's numbers.  The
            # tier-1 gate is monotone in batch size, so pre-computing
            # for the full batch can only over-compute (wasted shard
            # work), never under-compute: the gate is re-checked on the
            # actual survivor count before any probability is *used*.
            a_mean = a_var = None
            pre_probs: dict[bytes, float] | None = None
            if dist is not None:
                want_moments = dry_analytic < self._DRY_SCREEN_LIMIT and (
                    self._analytic_active(problem, best_eval, len(survivors))
                )
                want_screen = dry_screens < self._DRY_SCREEN_LIMIT and (
                    self._screen_active(problem, best_eval, len(survivors))
                )
                if want_moments or want_screen:
                    a_mean, a_var, probs_all = dist.screen_round(
                        survivors, want_moments, want_screen, self.screen_samples
                    )
                    if probs_all is not None:
                        pre_probs = {
                            c.key: float(p) for c, p in zip(survivors, probs_all)
                        }

            if dry_analytic < self._DRY_SCREEN_LIMIT and self._analytic_active(
                problem, best_eval, len(survivors)
            ):
                # SciPy loads with the tier: a solve below the size gate
                # imports none of it (sharded moments arrive without
                # `_analytic_evaluator`, so the names are taken here).
                from repro.solver.analytic_backend import ndtr, ndtri

                if a_mean is None:
                    a_mean, a_var = self._analytic_evaluator().makespan_moments(
                        problem, survivors
                    )
                sd = np.sqrt(np.maximum(a_var, 0.0))
                floor = self.analytic_sd_floor * np.abs(a_mean)
                if float(np.median(sd)) < float(np.median(floor)):
                    # Near-deterministic makespans (cv below the sd
                    # floor, e.g. long LIGO-style chains where variance
                    # averages out): MC deadline probabilities are
                    # degenerate 0/1 coin-edges there, so mirroring them
                    # from moments is hopeless and the tier's numbers
                    # would perturb the frontier's probability
                    # tie-breaks.  The tier stands down for good --
                    # makespan dispersion is a property of the workflow,
                    # not of the frontier position.
                    dry_analytic = self._DRY_SCREEN_LIMIT
                    decided = None
                else:
                    # The classification sd is floored at
                    # ``analytic_sd_floor`` of the mean, so margins
                    # always demand a minimum *relative* deadline slack
                    # on top of the sigma count.
                    np.maximum(sd, floor, out=sd)
                    z = (problem.deadline - a_mean) / np.maximum(sd, 1e-9)
                    analytic_evals += len(survivors)
                    z_req = float(ndtri(problem.required_probability))
                    decided = (z <= z_req - self.analytic_margin) | (
                        z >= z_req + self.analytic_accept_margin
                    )
                if decided is None:
                    pass
                elif decided.any():
                    idx = np.nonzero(decided)[0]
                    dec_states = [survivors[i] for i in idx]
                    costs = problem.expected_cost_batch(
                        np.stack([st.assignment for st in dec_states])
                    )
                    probs = ndtr(z[idx])
                    for j, (st, c) in enumerate(zip(dec_states, costs)):
                        feas = bool(z[idx[j]] >= z_req)
                        settled[st.key] = StateEval(
                            cost=float(c),
                            probability=float(probs[j]),
                            feasible=feas,
                            mean_makespan=float(a_mean[idx[j]]),
                            source="analytic",
                        )
                        if feas:
                            analytic_accepted += 1
                        else:
                            analytic_screened_out += 1
                    survivors = [
                        c for c, d in zip(survivors, decided) if not d
                    ]
                    dry_analytic = 0
                else:
                    dry_analytic += 1

            # Tier 1: prefix-fidelity screen (common random numbers)
            # over the ambiguous band.  Stands down after two
            # consecutive batches where it rejected nothing: near
            # convergence every candidate is a one-step edit of a
            # feasible state, so the prefix pass is pure overhead.  The
            # trigger counts rejections only -- deterministic, so the
            # trajectory stays run-to-run stable.
            if survivors and dry_screens < self._DRY_SCREEN_LIMIT and self._screen_active(
                problem, best_eval, len(survivors)
            ):
                if pre_probs is not None:
                    # Same per-state values the shards computed in round
                    # A, subset to the tier-0 survivors.
                    probs = np.array([pre_probs[c.key] for c in survivors])
                else:
                    probs = self.backend.screen_probabilities(
                        problem, survivors, self.screen_samples
                    )
                screen_evals += len(survivors)
                keep = probs + self.screen_margin >= problem.required_probability
                if not np.all(keep):
                    dropped = len(survivors)
                    survivors = [c for c, k in zip(survivors, keep) if k]
                    screened_out += dropped - len(survivors)
                    dry_screens = 0
                else:
                    dry_screens += 1

            # Tier 2: full-fidelity evaluation of whatever tiers 0 and 1
            # left undecided.
            if survivors:
                if dist is not None:
                    # Distributed round B: shards pin their own chunk's
                    # parents and evaluate at full fidelity.
                    child_evals = dist.gather_eval(
                        dist.submit_eval(survivors, [state for state, _ in batch])
                    )
                else:
                    # Pin the expanded parents' finish-time frontiers so
                    # the full evaluation takes the delta-propagation
                    # path.  Only parents that still have an MC-bound
                    # child are pinned -- a frontier is a performance
                    # hint, not a correctness requirement, and pinning a
                    # parent whose whole brood was settled above would
                    # be pure wasted propagation.
                    needed = {c.parent_key for c in survivors}
                    self.backend.ensure_frontier(
                        problem, *(st for st, _ in batch if st.key in needed)
                    )

                    child_evals = self.backend.evaluate_batch(problem, survivors)
                exact_evals += len(survivors)
                settled.update(
                    (cst.key, cev) for cst, cev in zip(survivors, child_evals)
                )
            if not settled:
                continue

            # Merge in the *original* child order: incumbent updates on
            # exact-cost ties keep the first-seen winner, so the
            # iteration order must not depend on which tier settled a
            # candidate for the cascade to stay plan-identical.
            for cst in children:
                cev = settled.get(cst.key)
                if cev is None:
                    continue
                if cev.better_than(best_eval):
                    best_state, best_eval = cst, cev
                    trace.append(
                        (evaluations, best_eval.cost if best_eval.feasible else float("inf"))
                    )
                # Prune: a feasible child costlier than the incumbent can
                # only get worse by promoting further (paper Section 5.3).
                if best_eval.feasible and cev.cost >= best_eval.cost and cev.feasible:
                    continue
                frontier.append((cst, cev))

        # An incumbent settled by tier 0 carries analytic numbers; the
        # *choice* is already exact (feasibility guaranteed by the
        # calibrated accept margin, cost deterministic), but the
        # reported probability / mean makespan should come from the
        # full-fidelity referee like every other returned plan's.
        if best_eval.source == "analytic":
            best_eval = self.backend.evaluate_batch(problem, [best_state])[0]
            exact_evals += 1

        delta1 = dict(getattr(self.backend, "delta_counters", None) or {})
        # Worker-side work totals: the shards' caches saw the traffic
        # this process's caches would have seen serially, so fold their
        # reported deltas in -- sharded and serial solves then report
        # comparable totals instead of the sharded one reading ~zero.
        shard = dict(getattr(distributor, "counters", None) or {})
        return SearchResult(
            best_state=best_state,
            best_eval=best_eval,
            evaluations=evaluations,
            expansions=expansions,
            feasible_found=best_eval.feasible,
            trace=trace,
            cache_hits=((cache.hits - hits0) if cache else 0)
            + shard.get("makespan_hits", 0),
            cache_misses=((cache.misses - misses0) if cache else 0)
            + shard.get("makespan_misses", 0),
            exact_evals=exact_evals,
            screen_evals=screen_evals,
            screened_out=screened_out,
            analytic_evals=analytic_evals,
            analytic_screened_out=analytic_screened_out,
            analytic_accepted=analytic_accepted,
            states_incremental=delta1.get("states_incremental", 0)
            - delta0.get("states_incremental", 0)
            + shard.get("states_incremental", 0),
            levels_skipped=delta1.get("levels_skipped", 0)
            - delta0.get("levels_skipped", 0)
            + shard.get("levels_skipped", 0),
            levels_total=delta1.get("levels_total", 0)
            - delta0.get("levels_total", 0)
            + shard.get("levels_total", 0),
            rows_recomputed=delta1.get("rows_recomputed", 0)
            - delta0.get("rows_recomputed", 0)
            + shard.get("rows_recomputed", 0),
            rows_total=delta1.get("rows_total", 0)
            - delta0.get("rows_total", 0)
            + shard.get("rows_total", 0),
            workers=(
                1 if distributor is None or distributor.is_serial else distributor.workers
            ),
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------

    def _analytic_evaluator(self):
        """The lazily built tier-0 analytic evaluator.

        Shares the main backend's :class:`~repro.solver.cache.ScratchPool`
        when it exposes one, so the cascade's tiers do not pin duplicate
        large buffers.
        """
        if self._analytic is None:
            from repro.solver.analytic_backend import AnalyticBackend

            self._analytic = AnalyticBackend(pool=getattr(self.backend, "pool", None))
        return self._analytic

    def analytic_stats(self) -> dict | None:
        """Tier-0 work counters, or ``None`` if the tier never ran."""
        if self._analytic is None:
            return None
        return self._analytic.analytic_stats()

    def _analytic_active(
        self, problem: CompiledProblem, best: StateEval | None, batch_size: int
    ) -> bool:
        """Whether the tier-0 analytic screen should run for this batch.

        Requires a feasible incumbent (same identity argument as the
        prefix screen -- and it guarantees the reliability constraint,
        which is assignment-free, is satisfiable, so an accepted
        candidate really is feasible), enough candidates to amortize
        the pass, a problem at or above the measured size crossover
        (``analytic_min_tasks``: below it the delta-propagation MC path
        is already so cheap that the extra analytic pass nets out
        negative -- montage-4/240 tasks measures ~0.9x, montage-8/680
        tasks 2-3x), a finite required quantile (``ndtri`` of 0 or 1 is
        infinite and nothing could be classified), and a main backend
        that is not itself analytic (the tier would just repeat the
        final evaluation).
        """
        return (
            best is not None
            and best.feasible
            and batch_size >= 4
            and problem.num_tasks >= self.analytic_min_tasks
            and 0.0 < problem.required_probability < 1.0
            and getattr(self.backend, "name", "") != "analytic"
        )

    def _screen_active(
        self, problem: CompiledProblem, best: StateEval | None, batch_size: int
    ) -> bool:
        """Whether the prefix screen should run for this candidate batch.

        Requires a feasible incumbent (see the stage-1 comment in
        :meth:`solve`), a sample budget the prefix meaningfully
        undercuts, and enough candidates to amortize the extra kernel.
        """
        return (
            best is not None
            and best.feasible
            and problem.num_samples >= 2 * self.screen_samples
            and batch_size >= 4
        )

    @staticmethod
    def _priority(ev: StateEval) -> tuple:
        """Frontier ordering: feasible cheap states first, then near-feasible."""
        if ev.feasible:
            return (0, ev.cost, -ev.probability)
        return (1, -ev.probability, ev.cost)

    @classmethod
    def _frontier_key(cls, se: tuple[PlanState, StateEval]) -> tuple:
        """Total order for frontier ranking: priority, then assignment bytes.

        The byte tiebreak makes the ranking a function of the frontier
        *set*: two entries never compare equal (state keys are unique
        within a frontier), so the sorted order -- and with it every
        beam/expansion cut -- is independent of insertion order.  That
        is what lets the sharded merge concatenate chunk results in any
        grouping and still reproduce the serial beam exactly.
        """
        return (*cls._priority(se[1]), se[0].key)


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
