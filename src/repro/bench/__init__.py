"""Experiment harness: regenerates every table and figure of Section 6.

One driver module per experiment; each returns structured rows (lists
of dicts) and can print the same table/series the paper reports.  The
``benchmarks/`` tree wraps these drivers in pytest-benchmark entries.

Scale: drivers default to a *quick* profile (smaller ensembles, fewer
repetitions) so the whole suite runs in minutes; set the environment
variable ``REPRO_BENCH_FULL=1`` for paper-scale parameters.
"""

from repro.bench.harness import BenchConfig, format_table, normalize
from repro.bench.fig01 import fig01_instance_configs
from repro.bench.fig02 import fig02_runtime_variance
from repro.bench.calibration import (
    table2_io_distributions,
    fig06_network_dynamics,
    fig07_network_histograms,
)
from repro.bench.fig08 import fig08_probabilistic_deadline_sweep
from repro.bench.fig09 import fig09_ensemble_scores
from repro.bench.fig10 import fig10_follow_the_cost
from repro.bench.fig11 import fig11_deadline_sensitivity
from repro.bench.perf import optimization_overhead, solver_speedup
from repro.bench.ablations import (
    ablation_probabilistic_vs_deterministic,
    ablation_mc_iterations,
    ablation_astar_pruning,
    ablation_search_seeds,
    ablation_failure_injection,
    ablation_fault_aware,
)

__all__ = [
    "BenchConfig",
    "format_table",
    "normalize",
    "fig01_instance_configs",
    "fig02_runtime_variance",
    "table2_io_distributions",
    "fig06_network_dynamics",
    "fig07_network_histograms",
    "fig08_probabilistic_deadline_sweep",
    "fig09_ensemble_scores",
    "fig10_follow_the_cost",
    "fig11_deadline_sensitivity",
    "solver_speedup",
    "optimization_overhead",
    "ablation_probabilistic_vs_deterministic",
    "ablation_mc_iterations",
    "ablation_astar_pruning",
    "ablation_search_seeds",
    "ablation_failure_injection",
    "ablation_fault_aware",
]
