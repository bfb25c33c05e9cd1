"""WLog: the paper's declarative language for provisioning problems.

WLog extends Prolog (Section 4) with workflow/cloud constructs:

* ``goal`` / ``cons`` / ``var`` directives declaring the optimization
  goal, the constraints and the decision variables;
* ``import(daxfile)`` and ``import(cloud)`` fact imports;
* probabilistic constraint built-ins ``deadline(p%, d)`` and
  ``budget(p%, b)``;
* solver hints: ``enabled(astar)`` with ``cal_g_score``/``est_h_score``.

Layering (bottom-up):

* :mod:`~repro.wlog.terms` -- terms, rules, substitution-free AST;
* :mod:`~repro.wlog.lexer` / :mod:`~repro.wlog.parser` -- WLog surface
  syntax (Prolog core + directives + ``95%``/``10h`` literals);
* :mod:`~repro.wlog.unify` -- unification with a backtrackable trail;
* :mod:`~repro.wlog.builtins` -- ``is``, comparisons, ``findall``,
  ``setof``, ``sum``, ``max`` and friends (rendered blue in the paper);
* :mod:`~repro.wlog.engine` -- SLD resolution with cut;
* :mod:`~repro.wlog.program` -- the parsed WLog program object
  (directives + rules);
* :mod:`~repro.wlog.imports` -- the fact registry behind ``import``;
* :mod:`~repro.wlog.probir` -- the probabilistic IR and Monte Carlo
  query evaluation (the paper's Algorithm 1);
* :mod:`~repro.wlog.library` -- ready-made WLog programs for the three
  use cases (Example 1 and the technical-report appendix programs);
* :mod:`~repro.wlog.diagnostics` / :mod:`~repro.wlog.analysis` -- the
  static analyzer: structured diagnostics with source spans, surfaced
  through ``repro lint`` and the engine's fail-fast gate.
"""

from repro.common.errors import WLogAnalysisError
from repro.wlog.terms import Atom, Num, Struct, Var, Term, Rule, make_list, from_python, to_python
from repro.wlog.parser import parse_program, parse_term, parse_query
from repro.wlog.engine import Database, Engine
from repro.wlog.program import WLogProgram, Directive, GoalSpec, ConsSpec, VarSpec
from repro.wlog.imports import ImportRegistry
from repro.wlog.probir import ProbabilisticIR, ProbFact, translate
from repro.wlog.diagnostics import Diagnostic, Span, render_diagnostics
from repro.wlog.analysis import analyze_program, check_program

__all__ = [
    "Atom",
    "Num",
    "Struct",
    "Var",
    "Term",
    "Rule",
    "make_list",
    "from_python",
    "to_python",
    "parse_program",
    "parse_term",
    "parse_query",
    "Database",
    "Engine",
    "WLogProgram",
    "Directive",
    "GoalSpec",
    "ConsSpec",
    "VarSpec",
    "ImportRegistry",
    "ProbabilisticIR",
    "ProbFact",
    "translate",
    "Diagnostic",
    "Span",
    "render_diagnostics",
    "analyze_program",
    "check_program",
    "WLogAnalysisError",
]
