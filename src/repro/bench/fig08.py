"""Figure 8: cost & time vs probabilistic deadline, Deco vs Autoscaling.

For Montage-1/4/8 under the medium deadline, sweep the probabilistic
requirement p over {90, 92, 94, 96, 98, 99.9}% and measure average
monetary cost and execution time of both optimizers' plans on the
simulator.  Costs/times are normalized to Autoscaling per (workflow, p)
pair, as in the paper.  Expected shapes: Deco's normalized cost < 1
everywhere; both optimizers' plans satisfy the requirement.
"""

from __future__ import annotations

from repro.baselines.autoscaling import autoscaling_plan_calibrated
from repro.bench.harness import BenchConfig
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.workflow.generators import montage

__all__ = ["fig08_probabilistic_deadline_sweep"]

DEFAULT_PERCENTILES = (90.0, 92.0, 94.0, 96.0, 98.0, 99.9)


def fig08_probabilistic_deadline_sweep(
    config: BenchConfig | None = None,
    degrees: tuple[float, ...] = (1.0, 4.0, 8.0),
    percentiles: tuple[float, ...] = DEFAULT_PERCENTILES,
) -> list[dict]:
    """One row per (workflow, percentile): Deco vs Autoscaling."""
    config = config or BenchConfig()
    cat = config.catalog
    sim = config.simulator()
    backend = VectorizedBackend()
    rows = []
    for deg in degrees:
        wf = montage(degrees=deg, seed=config.seed)
        deco = config.deco()
        d = deco.presets(wf).medium
        for pct in percentiles:
            # The deadline is fixed across the percentile sweep, so every
            # solve after the first reuses makespan samples through the
            # backend's makespan cache; the per-row counter deltas prove it.
            cache_before = deco.backend.cache.counters()
            plan = deco.schedule(wf, d, deadline_percentile=pct)
            cache_after = deco.backend.cache.counters()
            as_plan = autoscaling_plan_calibrated(
                wf, cat, d, pct, config.runtime_model, config.num_samples, seed=config.seed
            )
            problem = CompiledProblem.compile(
                wf, cat, d, pct, config.num_samples, seed=config.seed,
                runtime_model=config.runtime_model,
            )
            as_eval = backend.evaluate(problem, problem.state_from_assignment(as_plan))

            deco_m = sim.summarize(
                sim.run_many(wf, plan.assignment, config.runs_per_plan, workers=config.workers)
            )
            as_m = sim.summarize(
                sim.run_many(wf, as_plan, config.runs_per_plan, workers=config.workers)
            )
            rows.append(
                {
                    "workflow": wf.name,
                    "percentile": pct,
                    "deadline": d,
                    "deco_cost": deco_m["mean_cost"],
                    "as_cost": as_m["mean_cost"],
                    "cost_norm": deco_m["mean_cost"] / as_m["mean_cost"],
                    "deco_time": deco_m["mean_makespan"],
                    "as_time": as_m["mean_makespan"],
                    "time_norm": deco_m["mean_makespan"] / as_m["mean_makespan"],
                    "deco_expected_cost": plan.expected_cost,
                    "as_expected_cost": as_eval.cost,
                    "expected_cost_norm": plan.expected_cost / as_eval.cost,
                    "deco_prob": plan.probability,
                    "as_prob": as_eval.probability,
                    "mk_cache_hits": cache_after["hits"] - cache_before["hits"],
                    "mk_cache_misses": cache_after["misses"] - cache_before["misses"],
                }
            )
    return rows
