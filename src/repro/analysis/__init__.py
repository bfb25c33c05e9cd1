"""Semantic static analysis over the compiled constraint IR.

The syntactic linter (:mod:`repro.wlog.analysis`) checks undefined
predicates, arities, binding and stratification.  This package is the
*semantic* layer -- abstract interpretation of what the compiled
problem can possibly do, before any solve:

* :mod:`repro.analysis.bounds` -- interval inference: best/worst-case
  makespan and cost propagated through the task graph and compared
  against the program's ``deadline``/``budget``/``reliability``
  constraints (checks E401-E403, W401-W402);
* :mod:`repro.analysis.deadcode` -- constant conditions, dead rules and
  pragma-shadowed facts on the WLog program itself (W403-W405);
* :mod:`repro.analysis.passes` -- :func:`analyze_semantics`: resolve
  the imports once, then run the checks above in a fixed order;
* :mod:`repro.analysis.dominance` -- the :class:`OpMask`: structural
  proofs that some transformation op families have no moves (one
  instance type, a pure chain), derived from a compiled problem;
* :mod:`repro.analysis.sarif` -- the SARIF 2.1.0 emitter shared by
  ``repro lint`` and ``repro analyze``.

``Deco.solve_program`` runs :func:`analyze_semantics` once per solve
as its fast-fail gate.
"""

from __future__ import annotations

from repro.analysis.bounds import cost_interval, makespan_interval, support_bounds
from repro.analysis.domain import Interval
from repro.analysis.dominance import OpMask, compute_op_mask
from repro.analysis.passes import AnalysisReport, analyze_semantics
from repro.analysis.sarif import to_sarif

__all__ = [
    "Interval",
    "AnalysisReport",
    "analyze_semantics",
    "support_bounds",
    "makespan_interval",
    "cost_interval",
    "OpMask",
    "compute_op_mask",
    "to_sarif",
]
