"""Structured diagnostics for WLog static analysis.

A :class:`Diagnostic` is one finding of the analyzer in
:mod:`repro.wlog.analysis`: a severity (``error`` or ``warning``), a
stable check id (``E201``), the check's kebab-case name
(``undefined-predicate``), a human message, and an optional
:class:`Span` locating the finding in the source text.

Rendering is shared with the parser's error path:
:func:`render_diagnostic` uses the same caret-excerpt helper
(:func:`repro.common.errors.format_source_context`) that
:class:`~repro.common.errors.WLogSyntaxError` uses, so lint findings
and syntax errors point at programs identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.errors import format_source_context

__all__ = [
    "Span",
    "Diagnostic",
    "CHECKS",
    "CHECK_EXAMPLES",
    "ERROR",
    "WARNING",
    "render_diagnostic",
    "render_diagnostics",
    "checks_markdown",
]

ERROR = "error"
WARNING = "warning"

#: The check catalog: id -> (name, default severity, one-line description).
CHECKS: dict[str, tuple[str, str, str]] = {
    "E101": ("syntax-error", ERROR, "the source text could not be tokenized or parsed"),
    "E201": ("undefined-predicate", ERROR, "a called predicate is neither defined, built-in, imported nor declared"),
    "E202": ("arity-mismatch", ERROR, "a predicate is called with an arity no definition or built-in accepts"),
    "E203": ("bad-requirement", ERROR, "a cons requirement is not a well-formed deadline/2, budget/2 or reliability/2"),
    "E204": ("malformed-directive", ERROR, "an import/enabled form does not take a plain atom argument"),
    "E205": ("unbound-arithmetic", ERROR, "a variable is unbound at its first use inside is/2 or a comparison"),
    "E206": ("unsafe-negation", ERROR, "a variable occurs free under \\+ (negation as failure cannot bind it)"),
    "E207": ("non-stratified", ERROR, "negation cycle: a predicate depends on its own negation"),
    "E208": ("duplicate-directive", ERROR, "the program declares more than one goal or var directive"),
    "E209": ("detached-objective", ERROR, "the goal/cons variable does not occur in its measured predicate"),
    "E210": ("unknown-import", ERROR, "an import names a source not present in the registry"),
    "E211": ("bad-fault-model", ERROR, "a fault_model directive is malformed, or reliability lacks a fault_model"),
    "W301": ("singleton-variable", WARNING, "a named variable occurs exactly once in its clause"),
    "W302": ("unknown-hint", WARNING, "enabled(...) names a solver hint the engine does not know"),
    "W303": ("duplicate-rule", WARNING, "a rule repeats an earlier rule up to variable renaming"),
    "W304": ("unreachable-rule", WARNING, "a rule's predicate is not reachable from any directive"),
    "W305": ("builtin-shadow", WARNING, "a rule defines a built-in predicate and will never be selected"),
    "W306": ("suspicious-percentile", WARNING, "a requirement level <= 1 looks like a fraction, not a percent"),
    "W307": ("misspelled-directive", WARNING, "a fact looks like a misspelled import/enabled directive"),
    # E4xx/W4xx come from the semantic checks in :mod:`repro.analysis`
    # (abstract interpretation over the compiled constraint IR), not from
    # the syntactic analyzer above.
    "E401": ("deadline-unreachable", ERROR, "the best-case makespan already exceeds the deadline bound"),
    "E402": ("budget-unreachable", ERROR, "the cheapest possible plan already exceeds the budget bound"),
    "E403": ("reliability-unreachable", ERROR, "the declared fault model cannot reach the required success probability"),
    "W401": ("vacuous-deadline", WARNING, "the worst-case makespan meets the deadline: the constraint never binds"),
    "W402": ("vacuous-budget", WARNING, "the costliest possible plan fits the budget: the constraint never binds"),
    "W403": ("constant-condition", WARNING, "a ground body condition is statically decidable (fold it away)"),
    "W404": ("dead-rule", WARNING, "a rule body contains a statically false condition: the rule can never fire"),
    "W405": ("pragma-shadowed-fact", WARNING, "an in-source fact duplicates a family declared via a lint-assume pragma"),
}

#: One minimal WLog excerpt per check, for ``repro lint --explain`` and
#: the generated ``docs/checks.md`` catalog.  Illustrative, not executed:
#: the E4xx/W4xx examples assume the imports resolve against a registry.
CHECK_EXAMPLES: dict[str, str] = {
    "E101": "goal minimize Ct in totalcost(Ct",
    "E201": "totalcost(C) :- sumcosts(C).",
    "E202": "cost(T, C) :- exetime(T, C).",
    "E203": "cons T in maxtime(P, T) satisfies deadline(200%, 36000.0).",
    "E204": "import(Cloud).",
    "E205": "late(T) :- T > Limit.",
    "E206": "ok :- \\+ bad(X).",
    "E207": "p(X) :- \\+ q(X).\nq(X) :- p(X).",
    "E208": "goal minimize C in totalcost(C).\ngoal minimize T in maxtime(P, T).",
    "E209": "goal minimize Ct in totalcost(C).",
    "E210": "import(amazone2c).",
    "E211": "cons P in successprob(P) satisfies reliability(99%, 3).",
    "W301": "cost(Tid, C) :- price(Vid, C).",
    "W302": "enabled(astart).",
    "W303": "p(X) :- q(X).\np(Y) :- q(Y).",
    "W304": "helper(X) :- task(X).",
    "W305": "sum(L, S) :- mysum(L, S).",
    "W306": "cons T in maxtime(P, T) satisfies deadline(0.95%, 36000.0).",
    "W307": "imprt(amazonec2).",
    "E401": "cons T in maxtime(P, T) satisfies deadline(96%, 5.0).",
    "E402": "cons C in totalcost(C) satisfies budget(100%, 0.0001).",
    "E403": "fault_model(0.9, 60.0).\ncons P in successprob(P) satisfies reliability(99%, 0).",
    "W401": "cons T in maxtime(P, T) satisfies deadline(96%, 900000000.0).",
    "W402": "cons C in totalcost(C) satisfies budget(100%, 50000.0).",
    "W403": "fast :- 1 < 2, speedy.",
    "W404": "never :- 2 < 1, task(T).",
    "W405": "/* lint: assume wscore/2 */\nwscore(w1, 0.5).",
}


def checks_markdown() -> str:
    """The check catalog as a markdown document (``docs/checks.md``).

    Generated from :data:`CHECKS` and :data:`CHECK_EXAMPLES` so the
    documentation can never drift from the registry: a test fails when a
    check is added without an example, and ``repro lint --explain``
    prints exactly this text.
    """
    lines = [
        "# WLog check catalog",
        "",
        "Generated from `repro.wlog.diagnostics.CHECKS` by",
        "`repro lint --explain`; do not edit by hand.",
        "",
        "E1xx/E2xx/W3xx come from the syntactic analyzer",
        "(`repro lint`); E4xx/W4xx come from the semantic passes over the",
        "compiled constraint IR (`repro analyze`).",
        "",
    ]
    for code, (name, severity, description) in CHECKS.items():
        lines.append(f"## {code} `{name}` ({severity})")
        lines.append("")
        lines.append(f"{description[0].upper()}{description[1:]}.")
        example = CHECK_EXAMPLES.get(code)
        if example is not None:
            lines.append("")
            lines.append("```prolog")
            lines.extend(example.splitlines())
            lines.append("```")
        lines.append("")
    return "\n".join(lines)


class Span(NamedTuple):
    """A half-open source region; positions are 1-based, end exclusive.

    A tuple, so the parser builds one per term cheaply; it compares and
    hashes by its four fields.
    """

    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding."""

    check: str  # stable id, e.g. "E201"
    severity: str  # "error" | "warning"
    message: str
    span: Span | None = None

    @property
    def name(self) -> str:
        """The check's kebab-case name, e.g. ``undefined-predicate``."""
        return CHECKS[self.check][0] if self.check in CHECKS else self.check

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def sort_key(self) -> tuple:
        span = self.span or Span(0, 0)
        return (span.line, span.column, self.check, self.message)

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``repro lint --format=json``)."""
        out: dict = {
            "check": self.check,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
        }
        if self.span is not None:
            out["line"] = self.span.line
            out["column"] = self.span.column
            if self.span.end_column:
                out["end_line"] = self.span.end_line
                out["end_column"] = self.span.end_column
        return out

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span else ""
        return f"{where}{self.severity}[{self.check} {self.name}] {self.message}"


def make(check: str, message: str, span: Span | None = None) -> Diagnostic:
    """Build a diagnostic for a cataloged check, at its cataloged severity."""
    return Diagnostic(check=check, severity=CHECKS[check][1], message=message, span=span)


def render_diagnostic(diag: Diagnostic, source: str | None = None, filename: str = "<program>") -> str:
    """One finding as text, with a caret-underlined source excerpt."""
    if diag.span is not None:
        head = f"{filename}:{diag.span.line}:{diag.span.column}: " \
               f"{diag.severity}[{diag.check} {diag.name}] {diag.message}"
        if source:
            excerpt = format_source_context(
                source, diag.span.line, diag.span.column,
                diag.span.end_column if diag.span.end_line == diag.span.line else 0,
            )
            if excerpt:
                return f"{head}\n{excerpt}"
        return head
    return f"{filename}: {diag.severity}[{diag.check} {diag.name}] {diag.message}"


def render_diagnostics(
    diagnostics: list[Diagnostic] | tuple[Diagnostic, ...],
    source: str | None = None,
    filename: str = "<program>",
) -> str:
    """All findings as text, one block per finding."""
    return "\n".join(render_diagnostic(d, source, filename) for d in diagnostics)
