"""Provisioning-plan search (the paper's Section 5).

* :mod:`~repro.solver.state` -- the array-backed plan state the search
  walks (instance-type index per task).
* :mod:`~repro.solver.backends` -- state evaluation.  The *compiled
  problem* is the array form of the probabilistic IR (sampled task-time
  tensor + price vector + DAG structure); the **vectorized backend**
  evaluates it with NumPy array programs laid out exactly like the
  paper's CUDA kernels (one realization per "thread", one state per
  "block"), while the **scalar backend** is the single-thread CPU
  reference the paper compares against.  Both are cross-checked against
  the WLog interpreter.
* :mod:`~repro.solver.levels` -- the level-parallel DAG layout: padded
  parent-index matrices and topological levels, so finish-time
  propagation costs D (depth) fused array steps instead of N (tasks).
* :mod:`~repro.solver.cache` -- makespan memoization keyed by
  ``(tensor id, state key)``, reused across ``with_deadline`` sweeps.
* :mod:`~repro.solver.expand` -- candidate generation: the critical
  paths and Promote/Demote rankings of a whole batch of beam parents
  as one array pass per DAG level.
* :mod:`~repro.solver.search` -- the generic transformation-driven
  search (paper Algorithm 2, batched frontier expansion) and A* search
  with user-supplied g/h scores.
"""

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports
from repro.solver.state import PlanState, StateEval
from repro.solver.backends import (
    CompiledProblem,
    EvaluationBackend,
    VectorizedBackend,
    ScalarBackend,
    get_backend,
    BACKEND_NAMES,
)
from repro.solver.cache import MakespanCache, ScratchPool
from repro.solver.levels import LevelSchedule
from repro.solver.search import GenericSearch, AStarSearch, SearchResult
from repro.solver.analytic import analytic_makespan, analytic_deadline_probability

if TYPE_CHECKING:
    from repro.solver.analytic_backend import AnalyticBackend

# Tier 0 is the one module here that imports SciPy (`scipy.special`); a
# solve below the analytic gate never builds it.
__getattr__, __dir__ = lazy_exports(
    __name__, {"AnalyticBackend": "repro.solver.analytic_backend"}
)

__all__ = [
    "PlanState",
    "StateEval",
    "CompiledProblem",
    "EvaluationBackend",
    "VectorizedBackend",
    "ScalarBackend",
    "AnalyticBackend",
    "get_backend",
    "BACKEND_NAMES",
    "MakespanCache",
    "ScratchPool",
    "LevelSchedule",
    "GenericSearch",
    "AStarSearch",
    "SearchResult",
    "analytic_makespan",
    "analytic_deadline_probability",
]
