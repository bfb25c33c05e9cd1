"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's figures: each isolates one Deco design
decision and measures what it buys.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import BenchConfig
from repro.engine.ensemble import EnsembleDriver
from repro.faults import FaultModel, RecoveryPolicy
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.search import AStarSearch, GenericSearch
from repro.workflow.generators import montage

__all__ = [
    "ablation_probabilistic_vs_deterministic",
    "ablation_mc_iterations",
    "ablation_astar_pruning",
    "ablation_search_seeds",
    "ablation_failure_injection",
    "ablation_fault_aware",
]


def ablation_probabilistic_vs_deterministic(
    config: BenchConfig | None = None,
    degrees: float = 1.0,
    percentile: float = 96.0,
) -> list[dict]:
    """Deco's probabilistic constraint vs the deterministic (mean) notion.

    The deterministic variant optimizes against "mean makespan <= D"
    (the notion the paper argues is unsafe); we then measure how often
    each plan actually meets D on the dynamic cloud.  Expected shape:
    the deterministic plan is cheaper but misses the probabilistic
    requirement; the probabilistic plan pays a small premium and meets
    it.
    """
    config = config or BenchConfig()
    wf = montage(degrees=degrees, seed=config.seed)
    deco = config.deco()
    d = deco.presets(wf).medium
    sim = config.simulator()
    rows = []
    for notion, pct in (("probabilistic", percentile), ("deterministic", 50.0)):
        plan = deco.schedule(wf, d, deadline_percentile=pct)
        results = sim.run_many(
            wf, plan.assignment, max(20, config.runs_per_plan), workers=config.workers
        )
        makespans = np.asarray([r.makespan for r in results])
        rows.append(
            {
                "notion": notion,
                "expected_cost": plan.expected_cost,
                "measured_cost": float(np.mean([r.cost for r in results])),
                "deadline_hit_rate": float(np.mean(makespans <= d)),
                "required": percentile / 100.0,
                "meets_requirement": float(np.mean(makespans <= d)) >= percentile / 100.0 - 0.05,
            }
        )
    return rows


def ablation_mc_iterations(
    config: BenchConfig | None = None,
    degrees: float = 1.0,
    sample_counts: tuple[int, ...] = (10, 25, 50, 100, 200, 400),
) -> list[dict]:
    """Monte Carlo iteration count: probability-estimate error vs cost.

    The reference is the largest sample count; the error is the absolute
    deviation of the deadline-probability estimate on a fixed plan.
    """
    config = config or BenchConfig()
    wf = montage(degrees=degrees, seed=config.seed)
    deco = config.deco()
    d = deco.presets(wf).medium
    plan = deco.schedule(wf, d, deadline_percentile=config.deadline_percentile)
    backend = VectorizedBackend()

    def prob_at(samples: int, seed: int) -> float:
        problem = CompiledProblem.compile(
            wf, config.catalog, d, config.deadline_percentile, samples,
            seed=seed, runtime_model=config.runtime_model,
        )
        return backend.evaluate(problem, problem.state_from_assignment(plan.assignment)).probability

    reference = prob_at(max(sample_counts) * 4, seed=config.seed + 999)
    rows = []
    for s in sample_counts:
        estimates = [prob_at(s, seed=config.seed + i) for i in range(5)]
        rows.append(
            {
                "samples": s,
                "mean_estimate": float(np.mean(estimates)),
                "reference": reference,
                "abs_error": float(np.mean([abs(e - reference) for e in estimates])),
                "std": float(np.std(estimates)),
            }
        )
    return rows


def ablation_astar_pruning(config: BenchConfig | None = None) -> list[dict]:
    """A* (admissible potential heuristic) vs uninformed search (h = 0)
    on ensemble admission: expanded-state counts for the same optimum."""
    from repro.bench.fig09 import build_bench_ensemble

    config = config or BenchConfig()
    base = build_bench_ensemble("uniform_unsorted", config)
    deco = config.deco(max_evaluations=400)
    driver = EnsembleDriver(deco)
    plans = driver.member_plans(base, workers=config.workers)
    costs = {p: plans[p].expected_cost for p in plans if plans[p].feasible}
    budget = 0.5 * sum(costs.values())

    scores = {p: 2.0 ** (-p) for p in costs}
    candidates = sorted(costs)

    def run(with_h: bool):
        astar = AStarSearch(max_expansions=200_000)

        def used(state):
            return sum(costs[p] for p in state)

        def addable(state):
            rem = budget - used(state)
            start = max(state) + 1 if state else 0
            return [p for p in candidates if p >= start and costs[p] <= rem + 1e-12]

        def neighbors(state):
            return [frozenset(state | {p}) for p in addable(state)]

        def g(state):
            return -sum(scores[p] for p in state)

        def h(state):
            if not with_h:
                return 0.0
            rem = budget - used(state)
            start = max(state) + 1 if state else 0
            return -sum(scores[p] for p in candidates if p >= start and costs[p] <= rem + 1e-12)

        def goal(state):
            return not addable(state)

        return astar.solve(frozenset(), neighbors, g, h, goal)

    informed = run(True)
    uninformed = run(False)
    return [
        {
            "variant": "astar",
            "expanded": informed.expanded,
            "score": -informed.best_f if informed.found_goal else float("nan"),
        },
        {
            "variant": "uninformed",
            "expanded": uninformed.expanded,
            "score": -uninformed.best_f if uninformed.found_goal else float("nan"),
        },
    ]


def ablation_search_seeds(
    config: BenchConfig | None = None,
    degrees: float = 1.0,
) -> list[dict]:
    """Warm-start seeds vs cold start (all-cheapest only) for the
    transformation-driven search: solution quality and evaluations."""
    config = config or BenchConfig()
    wf = montage(degrees=degrees, seed=config.seed)
    deco = config.deco()
    d = deco.presets(wf).medium
    problem = CompiledProblem.compile(
        wf, config.catalog, d, config.deadline_percentile, config.num_samples,
        seed=config.seed, runtime_model=config.runtime_model,
    )
    search = GenericSearch(max_evaluations=config.max_evaluations)
    cold = search.solve(problem)
    warm_plan = deco.schedule(wf, d, deadline_percentile=config.deadline_percentile)
    return [
        {
            "variant": "cold",
            "cost": cold.best_eval.cost,
            "feasible": cold.best_eval.feasible,
            "evaluations": cold.evaluations,
        },
        {
            "variant": "warm",
            "cost": warm_plan.expected_cost,
            "feasible": warm_plan.feasible,
            "evaluations": warm_plan.evaluations,
        },
    ]


def ablation_failure_injection(
    config: BenchConfig | None = None,
    degrees: float = 1.0,
    failure_rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2),
) -> list[dict]:
    """Robustness under task failures (Condor retry discipline).

    Executes the same Deco plan with increasing per-attempt failure
    probabilities; failed attempts burn billed instance time and delay
    children.  Expected shape: measured cost and makespan grow
    monotonically (in expectation) with the failure rate while the plan
    still completes.
    """
    config = config or BenchConfig()
    wf = montage(degrees=degrees, seed=config.seed)
    deco = config.deco()
    plan = deco.schedule(wf, "medium", deadline_percentile=config.deadline_percentile)
    sim = config.simulator()
    rows = []
    for rate in failure_rates:
        # One code route with the parallel runtime: run_many owns the
        # per-run loop (and its failure-injection knobs) for both the
        # serial and multi-worker paths.
        results = sim.run_many(
            wf,
            plan.assignment,
            max(6, config.runs_per_plan),
            faults=FaultModel(task_failure_rate=rate),
            recovery=RecoveryPolicy(max_retries=50),
            workers=config.workers,
        )
        rows.append(
            {
                "failure_rate": rate,
                "mean_cost": float(np.mean([r.cost for r in results])),
                "mean_makespan": float(np.mean([r.makespan for r in results])),
                "deadline_hit_rate": float(
                    np.mean([r.makespan <= plan.deadline for r in results])
                ),
            }
        )
    return rows


def ablation_fault_aware(
    config: BenchConfig | None = None,
    degrees: float = 1.0,
    failure_rate: float = 0.12,
    max_retries: int = 3,
) -> list[dict]:
    """Fault-oblivious vs fault-aware provisioning under the same faults.

    Both plans are solved for the same workflow and deadline: the
    *oblivious* one assumes a perfect cloud, the *aware* one prices
    candidates under the declared :class:`~repro.faults.FaultModel`
    (expected retries inflate the task-time tensor via
    :meth:`CompiledProblem.with_faults`).  Both are then executed under
    the same injected faults.  Expected shape: the aware plan meets the
    deadline at least as often as the oblivious one.
    """
    config = config or BenchConfig()
    faults = FaultModel(task_failure_rate=failure_rate)
    recovery = RecoveryPolicy(max_retries=max_retries)
    wf = montage(degrees=degrees, seed=config.seed)
    deco = config.deco()
    sim = config.simulator()
    rows = []
    for label, solve_faults in (("oblivious", None), ("aware", faults)):
        plan = deco.schedule(
            wf,
            "medium",
            deadline_percentile=config.deadline_percentile,
            faults=solve_faults,
            recovery=recovery,  # read only when the solve has a fault model
        )
        results = sim.run_many(
            wf,
            plan.assignment,
            max(20, config.runs_per_plan),
            faults=faults,
            recovery=recovery,
            on_abort="record",
            workers=config.workers,
        )
        completed = [r for r in results if not r.aborted] or results
        rows.append(
            {
                "plan": label,
                "planned_cost": plan.expected_cost,
                "deadline": plan.deadline,
                "runs": len(results),
                "aborted": sum(r.aborted for r in results),
                "p_deadline": float(
                    np.mean([r.meets_deadline(plan.deadline) for r in results])
                ),
                "mean_makespan": float(np.mean([r.makespan for r in completed])),
                "mean_cost": float(np.mean([r.cost for r in completed])),
            }
        )
    return rows
