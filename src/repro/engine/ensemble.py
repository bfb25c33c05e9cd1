"""Use case 2: workflow-ensemble admission (paper Sections 3.2, 6.3.2).

Given an ensemble (prioritized workflows, per-workflow probabilistic
deadlines, one budget), maximize the total score ``sum 2**-priority``
of admitted workflows (Eq. 4) subject to the budget (Eq. 5), admitting
only workflows whose own probabilistic deadline is achievable (Eq. 6).

Per the paper's implementation notes, the search state is a boolean
vector over the ensemble's workflows and A* is enabled with the Score
metric as the g/h heuristic.  Each member's cost comes from running the
use-case-1 scheduling optimization under that member's deadline, which
is where Deco's advantage over SPSS originates: the transformation
operations find cheaper per-workflow plans, so more workflows fit the
budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from repro.common.errors import ValidationError
from repro.engine.deco import Deco
from repro.engine.plan import ProvisioningPlan
from repro.parallel.workers import solve_plans
from repro.solver.search import AStarResult, AStarSearch
from repro.wlog.engine import Database, Engine
from repro.wlog.library import ensemble_program
from repro.wlog.program import WLogProgram
from repro.wlog.terms import Atom, Num, Rule, Struct, to_python
from repro.workflow.ensembles import Ensemble, EnsembleMember

__all__ = ["MemberOutcome", "EnsembleDecision", "EnsembleDriver"]


@dataclass(frozen=True)
class MemberOutcome:
    """Per-member result: the optimized plan and the admission decision.

    ``plan`` is ``None`` when the member's solve failed outright (a
    :class:`~repro.common.errors.DecoError` recorded-and-skipped by
    :meth:`EnsembleDriver.member_plans`); such members are never
    admitted but still appear in the decision so failures are visible.
    """

    member: EnsembleMember
    plan: ProvisioningPlan | None
    admitted: bool

    @property
    def solved(self) -> bool:
        """Whether the member's scheduling optimization produced a plan."""
        return self.plan is not None

    @property
    def cost(self) -> float:
        return self.plan.expected_cost if self.plan is not None else float("inf")

    @property
    def feasible(self) -> bool:
        """Whether the member's probabilistic deadline is achievable."""
        return self.plan is not None and self.plan.feasible


@dataclass(frozen=True)
class EnsembleDecision:
    """The admission decision for a whole ensemble."""

    ensemble_name: str
    outcomes: tuple[MemberOutcome, ...]
    total_score: float
    total_cost: float
    budget: float
    astar_expanded: int
    solve_seconds: float

    @property
    def admitted_priorities(self) -> tuple[int, ...]:
        return tuple(sorted(o.member.priority for o in self.outcomes if o.admitted))

    @property
    def num_admitted(self) -> int:
        return sum(1 for o in self.outcomes if o.admitted)


class EnsembleDriver:
    """Solves ensemble admission with Deco-optimized member plans + A*."""

    def __init__(self, deco: Deco, max_expansions: int = 50_000):
        self.deco = deco
        self.astar = AStarSearch(max_expansions=max_expansions)

    # ------------------------------------------------------------------

    def member_plans(
        self,
        ensemble: Ensemble,
        workers: int | None = None,
        on_error: str = "record",
    ) -> dict[int, ProvisioningPlan | None]:
        """Optimize every member under its own probabilistic deadline.

        Member solves are independent, so ``workers > 1`` fans them out
        over processes (each worker rebuilds a pristine engine from
        :meth:`~repro.engine.deco.Deco.spec`).  The plans match the
        serial ones, which reuse this driver's warm engine, while tier 1
        is off (``num_samples < 64``); with it on, the warm engine's
        stale screening memo can move a plan (ROADMAP item 2, see
        :func:`~repro.parallel.workers.solve_plans`).

        A member whose solve raises a
        :class:`~repro.common.errors.DecoError` is recorded as ``None``
        and skipped rather than killing the whole ensemble
        (``on_error="record"``, the default); pass ``on_error="raise"``
        to get the fail-fast behavior back.
        """
        jobs = [
            (m.priority, m.workflow, m.deadline, m.deadline_percentile)
            for m in ensemble.by_priority()
        ]
        plans = solve_plans(self.deco, jobs, workers=workers, on_error=on_error)
        return {priority: plans[priority] for priority, *_ in jobs}

    def decide(
        self,
        ensemble: Ensemble,
        plans: Mapping[int, ProvisioningPlan] | None = None,
    ) -> EnsembleDecision:
        """Admit the score-maximal affordable subset (A* search).

        ``plans`` may carry precomputed member plans (the bench harness
        reuses them across budget sweeps).
        """
        if ensemble.budget == float("inf"):
            raise ValidationError("ensemble admission needs a finite budget")
        t0 = time.perf_counter()
        plans = dict(plans) if plans is not None else self.member_plans(ensemble)

        # Only members whose probabilistic deadline is achievable at all
        # are candidates (Eq. 6); their admission costs are Eq.-1 costs.
        # Members whose solve failed (plan None) are excluded outright.
        candidates = [
            m.priority
            for m in ensemble.by_priority()
            if plans[m.priority] is not None and plans[m.priority].feasible
        ]
        cost_of = {p: plans[p].expected_cost for p in candidates}
        score_of = {p: 2.0 ** (-p) for p in candidates}
        budget = ensemble.budget

        admitted = self._admit(candidates, cost_of, score_of, budget)

        outcomes = tuple(
            MemberOutcome(
                member=m,
                plan=plans[m.priority],
                admitted=m.priority in admitted.best_state,  # type: ignore[operator]
            )
            for m in ensemble.by_priority()
        )
        chosen = admitted.best_state
        total_cost = sum(cost_of[p] for p in chosen)
        total_score = sum(score_of[p] for p in chosen)
        return EnsembleDecision(
            ensemble_name=ensemble.name,
            outcomes=outcomes,
            total_score=total_score,
            total_cost=total_cost,
            budget=budget,
            astar_expanded=admitted.expanded,
            solve_seconds=time.perf_counter() - t0,
        )

    # Declarative path ---------------------------------------------------

    def wlog_facts(
        self,
        ensemble: Ensemble,
        plans: Mapping[int, ProvisioningPlan],
        admitted: frozenset[int] = frozenset(),
    ) -> list[Rule]:
        """The fact base the ensemble WLog program runs against.

        Per member ``w<p>``: ``workflow/1``, ``wscore/2`` (= 2**-p),
        ``wcost/2`` (Deco-optimized Eq.-1 cost), ``wfeasible/1`` (only
        when the member's probabilistic deadline is achievable), and the
        decision facts ``run(w<p>, 1|0)``.
        """
        rules: list[Rule] = []
        for member in ensemble.by_priority():
            w = Atom(f"w{member.priority}")
            plan = plans[member.priority]
            rules.append(Rule(Struct("workflow", (w,))))
            rules.append(Rule(Struct("wscore", (w, Num(member.score)))))
            # A failed solve (plan None) contributes a zero-cost,
            # never-feasible member: it can't be admitted, so the cost
            # never enters any admitted subset's total.
            cost = plan.expected_cost if plan is not None else 0.0
            rules.append(Rule(Struct("wcost", (w, Num(cost)))))
            if plan is not None and plan.feasible:
                rules.append(Rule(Struct("wfeasible", (w,))))
            rules.append(
                Rule(Struct("run", (w, Num(1.0 if member.priority in admitted else 0.0))))
            )
        # The program's \+ wfeasible(W) needs the predicate defined even
        # when no member is feasible.
        if not any(
            plans[m.priority] is not None and plans[m.priority].feasible
            for m in ensemble.members
        ):
            rules.append(Rule(Struct("wfeasible", (Atom("no_feasible_member"),))))
        return rules

    def evaluate_admission_wlog(
        self,
        ensemble: Ensemble,
        plans: Mapping[int, ProvisioningPlan],
        admitted: frozenset[int],
    ) -> tuple[float, float, bool]:
        """Evaluate one admission subset through the WLog program.

        Returns ``(score, cost, admissible)`` as the program's
        ``totalscore``/``ensemblecost``/``admissible`` queries report
        them -- the reference semantics of use case 2.
        """
        program = WLogProgram.from_source(ensemble_program(budget=ensemble.budget))
        db = Database(program.rules)
        db.extend(self.wlog_facts(ensemble, plans, admitted))
        engine = Engine(db)
        score = float(to_python(engine.first("totalscore(S)")["S"]))
        cost = float(to_python(engine.first("ensemblecost(C)")["C"]))
        admissible = engine.ask("admissible") and cost <= ensemble.budget + 1e-12
        return score, cost, admissible

    def decide_via_wlog(
        self,
        ensemble: Ensemble,
        plans: Mapping[int, ProvisioningPlan] | None = None,
    ) -> EnsembleDecision:
        """Admission with every candidate evaluated by the WLog program.

        Same A* skeleton as :meth:`decide`, but the scores, costs and
        admissibility of each searched subset come from interpreting the
        declarative program (paper Section 5's evaluation loop) rather
        than from precomputed Python dictionaries.  Interpreter-priced,
        so intended for moderate ensembles (tested up to ~15 members);
        :meth:`decide` is the compiled equivalent and the two must
        agree (asserted in the test suite).
        """
        if ensemble.budget == float("inf"):
            raise ValidationError("ensemble admission needs a finite budget")
        t0 = time.perf_counter()
        plans = dict(plans) if plans is not None else self.member_plans(ensemble)
        candidates = [
            m.priority
            for m in ensemble.by_priority()
            if plans[m.priority] is not None and plans[m.priority].feasible
        ]
        cache: dict[frozenset[int], tuple[float, float, bool]] = {}

        def look(state: frozenset[int]) -> tuple[float, float, bool]:
            out = cache.get(state)
            if out is None:
                out = self.evaluate_admission_wlog(ensemble, plans, state)
                cache[state] = out
            return out

        def addable(state):
            start = max(state) + 1 if state else 0
            return [
                p
                for p in candidates
                if p >= start and look(frozenset(state | {p}))[2]
            ]

        def neighbors(state):
            return [frozenset(state | {p}) for p in addable(state)]

        def g_score(state) -> float:
            return -look(state)[0]

        def h_score(state) -> float:
            _, cost, _ = look(state)
            remaining = ensemble.budget - cost
            start = max(state) + 1 if state else 0
            return -sum(
                2.0 ** (-p)
                for p in candidates
                if p >= start and plans[p].expected_cost <= remaining + 1e-12
            )

        result = self.astar.solve(frozenset(), neighbors, g_score, h_score, lambda s: not addable(s))
        chosen: frozenset[int] = result.best_state  # type: ignore[assignment]
        score, cost, _ = look(chosen)
        outcomes = tuple(
            MemberOutcome(member=m, plan=plans[m.priority], admitted=m.priority in chosen)
            for m in ensemble.by_priority()
        )
        return EnsembleDecision(
            ensemble_name=ensemble.name,
            outcomes=outcomes,
            total_score=score,
            total_cost=cost,
            budget=ensemble.budget,
            astar_expanded=result.expanded,
            solve_seconds=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------

    def _admit(self, candidates, cost_of, score_of, budget) -> AStarResult:
        """A* over admitted subsets, maximizing score within budget.

        States are frozensets of priorities, built by inserting
        candidates in ascending priority so each subset is generated
        once.  ``g`` is the negated score so far; ``h`` the negated
        optimistic remaining score (every still-affordable candidate);
        ``h`` is admissible, so the first goal popped is score-optimal.
        """
        candidates = sorted(candidates)

        def used(state) -> float:
            return sum(cost_of[p] for p in state)

        def addable(state):
            remaining = budget - used(state)
            start = max(state) + 1 if state else 0
            return [p for p in candidates if p >= start and cost_of[p] <= remaining + 1e-12]

        def neighbors(state):
            return [frozenset(state | {p}) for p in addable(state)]

        def g_score(state) -> float:
            return -sum(score_of[p] for p in state)

        def h_score(state) -> float:
            remaining = budget - used(state)
            start = max(state) + 1 if state else 0
            return -sum(
                score_of[p] for p in candidates if p >= start and cost_of[p] <= remaining + 1e-12
            )

        def is_goal(state) -> bool:
            return not addable(state)

        return self.astar.solve(frozenset(), neighbors, g_score, h_score, is_goal)
