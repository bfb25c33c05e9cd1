"""Semantic static analysis over the compiled constraint IR.

PR 2's linter (:mod:`repro.wlog.analysis`) is syntactic: undefined
predicates, arities, binding, stratification.  This package is the
*semantic* layer -- abstract interpretation of what the compiled
problem can possibly do, before any solve:

* :mod:`repro.analysis.bounds` -- interval inference: best/worst-case
  makespan and cost propagated through the task graph and compared
  against the program's ``deadline``/``budget``/``reliability``
  constraints (checks E401-E403, W401-W402);
* :mod:`repro.analysis.dominance` -- the :class:`OpMask`: structural
  per-program proofs that some transformation op families have no
  moves (one instance type, a pure chain);
* :mod:`repro.analysis.deadcode` -- dead-rule elimination and constant
  folding on the WLog program itself (W403-W405);
* :mod:`repro.analysis.passes` -- the pass manager: a fixpoint driver
  over declared-dependency passes sharing one blackboard;
* :mod:`repro.analysis.sarif` -- the SARIF 2.1.0 emitter shared by
  ``repro lint`` and ``repro analyze``.

The one-call entry point is :func:`analyze_semantics`; the engine's
fast-fail gate is ``Deco.solve_program(analyze=True)``.
"""

from __future__ import annotations

from repro.analysis.bounds import BoundsPass, cost_interval, makespan_interval, support_bounds
from repro.analysis.deadcode import ConstantConditionPass, DeadRulePass, ShadowedFactPass, fold_program
from repro.analysis.domain import Interval
from repro.analysis.dominance import DominancePass, OpMask, compute_op_mask
from repro.analysis.passes import (
    AnalysisContext,
    AnalysisPass,
    AnalysisReport,
    PassManager,
    analyze_semantics,
    default_passes,
)
from repro.analysis.sarif import to_sarif

__all__ = [
    "Interval",
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "PassManager",
    "analyze_semantics",
    "default_passes",
    "BoundsPass",
    "support_bounds",
    "makespan_interval",
    "cost_interval",
    "DominancePass",
    "OpMask",
    "compute_op_mask",
    "ConstantConditionPass",
    "DeadRulePass",
    "ShadowedFactPass",
    "fold_program",
    "to_sarif",
]
