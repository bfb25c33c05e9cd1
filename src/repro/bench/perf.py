"""Solver performance: backend speedup and optimization overhead.

* :func:`solver_speedup` -- the paper's GPU-vs-CPU gap (Sections
  6.3.1-6.3.2 report 10x-36x for the K40 over a 6-core CPU): vectorized
  NumPy backend vs the deliberately scalar Python backend, identical
  numerics.

* :func:`optimization_overhead` -- the paper's end-to-end figure of
  merit: 4.3-63.17 ms of optimization time per task for 20-1000-task
  workflows.  Rows carry the makespan-cache hit/miss counters of the
  solve, showing how much propagation the memoization avoided.

How fast the engine's own layers are is judged end to end by
``benchmarks/e2e`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import time

from repro.bench.harness import BenchConfig
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.state import PlanState
from repro.workflow.generators import ligo, montage

__all__ = ["solver_speedup", "optimization_overhead"]


def _best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds (first call warms caches)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def solver_speedup(
    config: BenchConfig | None = None,
    degrees: tuple[float, ...] = (1.0, 4.0, 8.0),
    batch: int = 4,
    num_samples: int = 50,
    repeats: int = 5,
) -> list[dict]:
    """Per workflow scale: evaluation time of the vectorized vs scalar backend.

    The comparison runs at a small shape (``batch`` x ``num_samples``)
    because the pure-Python backend is slow by design.
    """
    config = config or BenchConfig()
    gpu, cpu = VectorizedBackend(), ScalarBackend()
    rows = []
    for deg in degrees:
        wf = montage(degrees=deg, seed=config.seed)
        problem = CompiledProblem.compile(
            wf, config.catalog, deadline=1.0e9, percentile=96.0,
            num_samples=num_samples, seed=config.seed,
            runtime_model=config.runtime_model,
        )
        states = [PlanState.uniform(len(wf), t % problem.num_types) for t in range(batch)]

        t_gpu = _best_of(lambda: gpu.evaluate_batch(problem, states), repeats)
        t0 = time.perf_counter()
        cpu_out = cpu.evaluate_batch(problem, states)
        t_cpu = time.perf_counter() - t0
        gpu_out = gpu.evaluate_batch(problem, states)

        assert all(
            abs(a.cost - b.cost) < 1e-9 and abs(a.mean_makespan - b.mean_makespan) < 1e-6
            for a, b in zip(gpu_out, cpu_out)
        ), "backends disagree"

        rows.append(
            {
                "workflow": wf.name,
                "tasks": len(wf),
                "samples": num_samples,
                "batch": batch,
                "vectorized_ms": t_gpu * 1000,
                "scalar_ms": t_cpu * 1000,
                "speedup": t_cpu / t_gpu,
            }
        )
    return rows


def optimization_overhead(
    config: BenchConfig | None = None,
    sizes: tuple[int, ...] = (20, 100, 1000),
) -> list[dict]:
    """Deco's optimization time per task for 20/100/1000-task workflows."""
    config = config or BenchConfig()
    rows = []
    for size in sizes:
        wf = ligo(num_tasks=size, seed=config.seed)
        deco = config.deco()
        before = deco.cache.counters()
        plan = deco.schedule(wf, "medium", deadline_percentile=config.deadline_percentile)
        after = deco.cache.counters()
        rows.append(
            {
                "workflow": wf.name,
                "tasks": len(wf),
                "solve_seconds": plan.solve_seconds,
                "ms_per_task": plan.overhead_ms_per_task(),
                "evaluations": plan.evaluations,
                "feasible": plan.feasible,
                "cache_hits": after["hits"] - before["hits"],
                "cache_misses": after["misses"] - before["misses"],
            }
        )
    return rows
