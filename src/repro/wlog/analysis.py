"""Static analysis of WLog programs.

The paper's workflow (Section 3) has users hand-write declarative WLog
programs; a typo'd predicate or a mis-aritied ``deadline`` produces an
empty solution set or a deep engine failure with no source location.
This module is the compile-time backstop: :func:`analyze_program` runs
a battery of checks over a parsed program and returns structured
:class:`~repro.wlog.diagnostics.Diagnostic` records with source spans,
and :func:`check_program` is the fail-fast gate the engine facade and
the ``repro lint`` CLI share.

Checks (catalog in :data:`repro.wlog.diagnostics.CHECKS`):

* **E201/E202 undefined predicate & arity mismatch** -- every call in a
  rule body, goal, constraint or var domain must resolve against the
  program's own rules, the built-in registry
  (:data:`repro.wlog.builtins.BUILTINS`), the fact families an
  ``import`` materializes (:mod:`repro.wlog.imports`), the declared
  decision variable, or caller-supplied external facts;
* **E203/E204/W302/W306 directive signatures** -- ``deadline/2``,
  ``budget/2`` and ``reliability/2`` shapes and argument domains
  (percentile in (0, 100], positive deadline, nonnegative budget,
  integer retry budget), atom-argument ``import``/``enabled`` forms,
  known solver hints;
* **E211 fault model** -- ``fault_model(Rate, Mtbf)`` argument domains
  (rate in [0, 1), positive MTBF) and the requirement that a
  ``reliability`` constraint declares its fault environment;
* **E205/E206 variable safety** -- variables unbound at their first use
  inside ``is``/arithmetic comparisons, and variables occurring free
  under ``\\+`` (negation as failure cannot bind them);
* **E207 stratification** -- a predicate that (transitively) depends on
  its own negation would loop in ``probir`` evaluation;
* **W301 singletons**, **W303 duplicate rules**, **W304 unreachable
  rules**, **W305 built-in shadowing**, **W307 misspelled directives**.

External facts (for programs whose fact base is supplied by a driver at
solve time, like the ensemble/follow-the-cost templates) can be declared
either via ``extra_predicates`` or in-source with a pragma comment::

    /* lint: assume workflow/1, wscore/2 */
"""

from __future__ import annotations

import difflib
import re
from typing import Iterable, Iterator, Sequence, Union

from repro.common.errors import WLogAnalysisError
from repro.wlog.builtins import BUILTINS, builtin_arities
from repro.wlog.diagnostics import (
    Diagnostic,
    Span,
    make,
    render_diagnostics,
)
from repro.wlog.imports import (
    CLOUD_FACT_INDICATORS,
    ImportRegistry,
    JOINT_FACT_INDICATORS,
    WORKFLOW_FACT_INDICATORS,
)
from repro.wlog.parser import ParsedProgram, parse_program
from repro.wlog.program import ConsSpec, Directive, FaultSpec, GoalSpec, VarSpec, WLogProgram
from repro.wlog.terms import Atom, Num, Rule, Struct, Term, Var

__all__ = ["analyze_program", "check_program", "pragma_assumes", "reject_fatal"]

Indicator = tuple[str, int]
ProgramLike = Union[str, ParsedProgram, WLogProgram]

#: Meta-call built-ins and the argument positions holding goals.
_META_GOALS: dict[Indicator, tuple[int, ...]] = {
    ("findall", 3): (1,),
    ("bagof", 3): (1,),
    ("setof", 3): (1,),
    ("forall", 2): (0, 1),
    ("call", 1): (0,),
    ("\\+", 1): (0,),
    ("not", 1): (0,),
    (",", 2): (0, 1),
}

_NEGATION: frozenset[Indicator] = frozenset({("\\+", 1), ("not", 1)})

#: Comparisons whose operands are arithmetic expressions (must be bound).
_ARITH_COMPARE = frozenset({"=:=", "=\\=", "<", ">", "=<", ">="})

#: Term-level comparisons/unification; may bind, never need arithmetic.
_TERM_COMPARE = frozenset({"==", "\\==", "="})

#: Solver hints the engine understands (``enabled(...)`` arguments).
KNOWN_HINTS = frozenset({"astar"})

#: Requirement built-ins: functor -> (min bound allowed inclusive?).
_REQUIREMENTS = ("deadline", "budget", "reliability")

_PRAGMA_RE = re.compile(r"/\*\s*lint:\s*assume\s+([^*]*?)\s*\*/")
_PRAGMA_ITEM_RE = re.compile(r"([a-z][A-Za-z0-9_]*)\s*/\s*(\d+)")

#: All fact families any import combination can materialize.
_ALL_IMPORT_FACTS = WORKFLOW_FACT_INDICATORS | CLOUD_FACT_INDICATORS | JOINT_FACT_INDICATORS


def pragma_assumes(source: str) -> set[Indicator]:
    """Parse ``/* lint: assume name/arity, ... */`` pragmas from source."""
    out: set[Indicator] = set()
    for block in _PRAGMA_RE.findall(source):
        for name, arity in _PRAGMA_ITEM_RE.findall(block):
            out.add((name, int(arity)))
    return out


def _iter_vars(term: Term) -> Iterator[Var]:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))


def _named_vars(term: Term) -> set[str]:
    return {v.name for v in _iter_vars(term) if not v.name.startswith("_")}


def _iter_calls(goal: Term, negated: bool = False) -> Iterator[tuple[Term, Indicator, bool]]:
    """Every predicate call in a goal tree: ``(term, indicator, negated)``.

    Built-in calls are filtered out; meta-call arguments (``findall``
    goals, negated goals...) are descended into.
    """
    if isinstance(goal, (Var, Num)):
        return
    if isinstance(goal, Atom):
        if goal.name == "!":
            return
        ind = (goal.name, 0)
        if ind not in BUILTINS:
            yield goal, ind, negated
        return
    if isinstance(goal, Struct):
        ind = goal.indicator
        if ind in _META_GOALS:
            neg = negated or ind in _NEGATION
            for pos in _META_GOALS[ind]:
                yield from _iter_calls(goal.args[pos], neg)
            return
        if ind in BUILTINS:
            return
        yield goal, ind, negated


def _goal_span(term: Term, fallback: Span | None) -> Span | None:
    span = getattr(term, "span", None)
    return span if span is not None else fallback


class _Analyzer:
    def __init__(
        self,
        rules: Sequence[Rule],
        directives: Sequence[Directive],
        source: str,
        registry: ImportRegistry | None,
        extra_predicates: Iterable[Indicator],
    ):
        self.rules = tuple(rules)
        self.directives = tuple(directives)
        self.source = source
        self.registry = registry
        self.extra = set(extra_predicates) | (pragma_assumes(source) if source else set())
        self.diags: list[Diagnostic] = []

        # Classified directive views (tolerant of duplicates, unlike
        # WLogProgram construction, so we can diagnose instead of raise).
        self.imports: list[Directive] = [d for d in self.directives if d.kind == "import"]
        self.enabled: list[Directive] = [d for d in self.directives if d.kind == "enabled"]
        self.goals: list[Directive] = [d for d in self.directives if d.kind == "goal"]
        self.cons: list[Directive] = [d for d in self.directives if d.kind == "cons"]
        self.vars: list[Directive] = [d for d in self.directives if d.kind == "var"]
        self.faults: list[Directive] = [d for d in self.directives if d.kind == "fault_model"]

        self.defined: dict[Indicator, list[Rule]] = {}
        for rule in self.rules:
            self.defined.setdefault(rule.indicator, []).append(rule)

    def emit(self, check: str, message: str, span: Span | None) -> None:
        self.diags.append(make(check, message, span))

    # Known-callable resolution -------------------------------------------

    def import_fact_indicators(self) -> set[Indicator]:
        names = tuple(str(d.payload) for d in self.imports)
        if not names:
            return set()
        if self.registry is None:
            # No registry to consult: assume imports provide the full
            # workflow + cloud fact surface.
            return set(_ALL_IMPORT_FACTS)
        return self.registry.fact_indicators(names)

    def decision_indicators(self) -> set[Indicator]:
        out: set[Indicator] = set()
        for d in self.vars:
            spec = d.payload
            if isinstance(spec, VarSpec) and isinstance(spec.declaration, Struct):
                out.add(spec.declaration.indicator)
        return out

    # Directive checks ------------------------------------------------------

    def check_directives(self) -> None:
        for extras in (self.goals[1:], self.vars[1:], self.faults[1:]):
            for d in extras:
                kind = d.kind
                self.emit(
                    "E208",
                    f"program declares more than one {kind} directive; "
                    f"only the first is meaningful",
                    d.span,
                )
        for d in self.faults:
            spec = d.payload
            if isinstance(spec, FaultSpec):
                if not 0.0 <= spec.rate < 1.0:
                    self.emit(
                        "E211",
                        f"fault_model failure rate must be in [0, 1), got {spec.rate:g}",
                        d.span,
                    )
                if spec.mtbf <= 0.0:
                    self.emit(
                        "E211",
                        f"fault_model MTBF must be > 0 seconds, got {spec.mtbf:g}",
                        d.span,
                    )
        if self.registry is not None:
            known = self.registry.known_names()
            for d in self.imports:
                name = str(d.payload)
                if self.registry.kind_of(name) is None:
                    hint = _suggest(name, known)
                    self.emit(
                        "E210",
                        f"import({name}) does not name a registered workflow or cloud"
                        + (f"; did you mean {hint}?" if hint else
                           f" (known: {', '.join(known) or 'none'})"),
                        d.span,
                    )
        for d in self.enabled:
            hint_name = str(d.payload)
            if hint_name not in KNOWN_HINTS:
                suggestion = _suggest(hint_name, KNOWN_HINTS)
                self.emit(
                    "W302",
                    f"enabled({hint_name}) is not a known solver hint"
                    + (f"; did you mean {suggestion}?" if suggestion else
                       f" (known hints: {', '.join(sorted(KNOWN_HINTS))})"),
                    d.span,
                )
        for d in self.goals:
            spec = d.payload
            if isinstance(spec, GoalSpec):
                if spec.objective.name not in _named_vars(spec.predicate):
                    self.emit(
                        "E209",
                        f"goal objective {spec.objective.name} does not occur in "
                        f"{_indicator_text(spec.predicate)}",
                        _goal_span(spec.objective, d.span),
                    )
        for d in self.cons:
            spec = d.payload
            if isinstance(spec, ConsSpec):
                self.check_cons(spec, d.span)

    def check_cons(self, spec: ConsSpec, span: Span | None) -> None:
        if spec.variable is not None and spec.variable.name not in _named_vars(spec.predicate):
            self.emit(
                "E209",
                f"cons variable {spec.variable.name} does not occur in "
                f"{_indicator_text(spec.predicate)}",
                _goal_span(spec.variable, span),
            )
        req = spec.requirement
        if req is None:
            return
        req_span = _goal_span(req, span)
        name = req.functor if isinstance(req, Struct) else getattr(req, "name", repr(req))
        if name not in _REQUIREMENTS:
            self.emit(
                "E203",
                f"unsupported constraint requirement {name!r}; "
                f"expected deadline/2, budget/2 or reliability/2",
                req_span,
            )
            return
        if not isinstance(req, Struct) or req.arity != 2:
            arity = req.arity if isinstance(req, Struct) else 0
            self.emit(
                "E203",
                f"{name}/{arity}: {name} expects 2 arguments "
                f"({name}(percentile, bound))",
                req_span,
            )
            return
        if name == "reliability" and not self.faults:
            self.emit(
                "E211",
                "reliability constraint needs a fault_model(Rate, Mtbf) "
                "directive declaring what can fail",
                req_span,
            )
        level, bound = req.args
        if not isinstance(level, Num):
            self.emit(
                "E203",
                f"{name} requirement level must be a number (e.g. 95%), got {level!r}",
                req_span,
            )
        else:
            p = float(level.value)
            if not 0.0 < p <= 100.0:
                self.emit(
                    "E203",
                    f"{name} requirement level must be in (0, 100], got {p:g}",
                    req_span,
                )
            elif p <= 1.0:
                self.emit(
                    "W306",
                    f"{name} requirement level {p:g} looks like a fraction; "
                    f"WLog levels are percentages (did you mean {p * 100:g}%?)",
                    req_span,
                )
        if not isinstance(bound, Num):
            self.emit(
                "E203",
                f"{name} bound must be a number (e.g. 10h), got {bound!r}",
                req_span,
            )
        elif name == "deadline" and float(bound.value) <= 0.0:
            self.emit("E203", f"deadline bound must be > 0, got {bound!r}", req_span)
        elif name == "budget" and float(bound.value) < 0.0:
            self.emit("E203", f"budget bound must be >= 0, got {bound!r}", req_span)
        elif name == "reliability" and (
            float(bound.value) < 0.0 or float(bound.value) != int(bound.value)
        ):
            self.emit(
                "E203",
                f"reliability retry budget must be a nonnegative integer, got {bound!r}",
                req_span,
            )

    # Rule-shape checks -----------------------------------------------------

    def check_rule_shapes(self) -> None:
        shadowed: set[Indicator] = set()
        misspellable = ("enabled", "import")
        for rule in self.rules:
            ind = rule.indicator
            if ind in BUILTINS and ind not in shadowed:
                shadowed.add(ind)
                self.emit(
                    "W305",
                    f"rules for {ind[0]}/{ind[1]} shadow a built-in predicate "
                    f"and will never be selected by the engine",
                    rule.span,
                )
            if ind[1] == 1 and rule.is_fact:
                if ind[0] in ("import", "enabled"):
                    self.emit(
                        "E204",
                        f"{ind[0]}(...) takes a single atom argument; this clause "
                        f"is treated as an ordinary fact, not a directive",
                        rule.span,
                    )
                else:
                    hint = _suggest(ind[0], misspellable, cutoff=0.75)
                    if hint:
                        self.emit(
                            "W307",
                            f"fact {ind[0]}/1 looks like a misspelled "
                            f"{hint}(...) directive",
                            rule.span,
                        )

    # Call resolution -------------------------------------------------------

    def check_calls(self) -> None:
        known: set[Indicator] = set(self.defined)
        known |= self.import_fact_indicators()
        known |= self.decision_indicators()
        known |= self.extra
        if self.faults:
            # The engine synthesizes successprob/1 (the plan's analytic
            # success probability) whenever a fault model is declared.
            known.add(("successprob", 1))

        candidate_names = sorted(
            {n for (n, _a) in known} | {n for (n, _a) in BUILTINS}
        )

        def check_call(term: Term, ind: Indicator, fallback: Span | None) -> None:
            if ind in known or ind in BUILTINS:
                return
            name, arity = ind
            span = _goal_span(term, fallback)
            other = sorted({a for (n, a) in known if n == name} | set(builtin_arities(name)))
            if other:
                arities = ", ".join(f"{name}/{a}" for a in other)
                self.emit(
                    "E202",
                    f"{name}/{arity} is called but {name} only exists as {arities}",
                    span,
                )
                return
            hint = _suggest(name, candidate_names)
            self.emit(
                "E201",
                f"unknown predicate {name}/{arity}"
                + (f"; did you mean {hint}?" if hint else ""),
                span,
            )

        for rule in self.rules:
            for goal in rule.body:
                for term, ind, _neg in _iter_calls(goal):
                    check_call(term, ind, rule.span)
        for d in self.goals:
            spec = d.payload
            if isinstance(spec, GoalSpec):
                for term, ind, _neg in _iter_calls(spec.predicate):
                    check_call(term, ind, d.span)
        for d in self.cons:
            spec = d.payload
            if isinstance(spec, ConsSpec):
                for term, ind, _neg in _iter_calls(spec.predicate):
                    check_call(term, ind, d.span)
        for d in self.vars:
            spec = d.payload
            if isinstance(spec, VarSpec):
                for domain in spec.domains:
                    for term, ind, _neg in _iter_calls(domain):
                        check_call(term, ind, d.span)

    # Variable checks -------------------------------------------------------

    def check_rule_variables(self) -> None:
        for rule in self.rules:
            occurrences: dict[str, list[Var]] = {}
            for term in (rule.head, *rule.body):
                for v in _iter_vars(term):
                    if not v.name.startswith("_"):
                        occurrences.setdefault(v.name, []).append(v)
            for name, occs in occurrences.items():
                if len(occs) == 1:
                    self.emit(
                        "W301",
                        f"singleton variable {name} (use _{name} if intentional)",
                        _goal_span(occs[0], rule.span),
                    )
            bound = set(_named_vars(rule.head))
            for goal in rule.body:
                bound = self._flow_goal(goal, bound, rule)

    def _flow_goal(self, goal: Term, bound: set[str], rule: Rule) -> set[str]:
        """Left-to-right binding propagation through one body goal."""
        if not isinstance(goal, Struct):
            return bound
        ind = goal.indicator
        if ind == ("is", 2):
            lhs, rhs = goal.args
            self._require_bound(rhs, bound, rule, context="arithmetic (is/2)")
            return bound | _named_vars(lhs) | _named_vars(rhs)
        if goal.functor in _ARITH_COMPARE and goal.arity == 2:
            self._require_bound(goal, bound, rule, context=f"comparison ({goal.functor})")
            return bound | _named_vars(goal)
        if goal.functor in _TERM_COMPARE and goal.arity == 2:
            return bound | _named_vars(goal)
        if ind in _NEGATION:
            inner = goal.args[0]
            for v in _iter_vars(inner):
                if not v.name.startswith("_") and v.name not in bound:
                    self.emit(
                        "E206",
                        f"variable {v.name} occurs free under \\+; negation as "
                        f"failure cannot bind it (bind it before the negation "
                        f"or use an anonymous _{v.name})",
                        _goal_span(v, rule.span),
                    )
                    bound = bound | {v.name}  # report once
            # Inner bindings do not escape the negation.
            self._flow_goal(inner, set(bound), rule)
            return bound
        if ind in (("findall", 3), ("bagof", 3), ("setof", 3)):
            _template, inner, result = goal.args
            self._flow_goal(inner, set(bound), rule)
            return bound | _named_vars(result)
        if ind == ("forall", 2):
            scratch = set(bound)
            scratch = self._flow_goal(goal.args[0], scratch, rule)
            self._flow_goal(goal.args[1], scratch, rule)
            return bound
        if ind == (",", 2):
            bound = self._flow_goal(goal.args[0], bound, rule)
            return self._flow_goal(goal.args[1], bound, rule)
        # Ordinary call (or call/1): any argument may be bound by it.
        return bound | _named_vars(goal)

    def _require_bound(self, expr: Term, bound: set[str], rule: Rule, context: str) -> None:
        for v in _iter_vars(expr):
            if not v.name.startswith("_") and v.name not in bound:
                self.emit(
                    "E205",
                    f"variable {v.name} is unbound at its first use in {context}",
                    _goal_span(v, rule.span),
                )

    # Stratification --------------------------------------------------------

    def check_stratification(self) -> None:
        adjacency: dict[Indicator, set[Indicator]] = {}
        negative_edges: list[tuple[Indicator, Indicator, Rule]] = []
        for rule in self.rules:
            head = rule.indicator
            for goal in rule.body:
                for _term, ind, negated in _iter_calls(goal):
                    adjacency.setdefault(head, set()).add(ind)
                    if negated:
                        negative_edges.append((head, ind, rule))
        reported: set[tuple[Indicator, Indicator]] = set()
        for head, target, rule in negative_edges:
            if (head, target) in reported:
                continue
            if self._reaches(adjacency, target, head):
                reported.add((head, target))
                self.emit(
                    "E207",
                    f"{head[0]}/{head[1]} depends on the negation of "
                    f"{target[0]}/{target[1]}, which calls back into "
                    f"{head[0]}/{head[1]}: the program cannot be stratified "
                    f"and evaluation may not terminate",
                    rule.span,
                )

    @staticmethod
    def _reaches(adjacency: dict[Indicator, set[Indicator]], start: Indicator, goal: Indicator) -> bool:
        if start == goal:
            return True
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    # Duplicates & reachability --------------------------------------------

    def check_duplicates(self) -> None:
        seen: dict[object, Rule] = {}
        for rule in self.rules:
            key = _canonical_rule(rule)
            first = seen.get(key)
            if first is None:
                seen[key] = rule
                continue
            where = f" at line {first.span.line}" if first.span else ""
            ind = rule.indicator
            self.emit(
                "W303",
                f"duplicate rule for {ind[0]}/{ind[1]}: identical (up to "
                f"variable renaming) to the rule{where}",
                rule.span,
            )

    def check_reachability(self) -> None:
        if not self.goals:
            return  # plain Prolog fact bases have no root to walk from
        roots: set[Indicator] = set()
        for d in self.goals:
            spec = d.payload
            if isinstance(spec, GoalSpec):
                roots.update(ind for _t, ind, _n in _iter_calls(spec.predicate))
        for d in self.cons:
            spec = d.payload
            if isinstance(spec, ConsSpec):
                roots.update(ind for _t, ind, _n in _iter_calls(spec.predicate))
        for d in self.vars:
            spec = d.payload
            if isinstance(spec, VarSpec):
                if isinstance(spec.declaration, Struct):
                    roots.add(spec.declaration.indicator)
                for domain in spec.domains:
                    roots.update(ind for _t, ind, _n in _iter_calls(domain))
        if any(str(d.payload) == "astar" for d in self.enabled):
            roots.update({("cal_g_score", 1), ("est_h_score", 1)})

        adjacency: dict[Indicator, set[Indicator]] = {}
        for rule in self.rules:
            head = rule.indicator
            for goal in rule.body:
                adjacency.setdefault(head, set()).update(
                    ind for _t, ind, _n in _iter_calls(goal)
                )
        reachable = set(roots)
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        flagged: set[Indicator] = set()
        for rule in self.rules:
            ind = rule.indicator
            if ind in reachable or ind in flagged or ind in BUILTINS:
                continue
            flagged.add(ind)
            self.emit(
                "W304",
                f"{ind[0]}/{ind[1]} is never reached from the goal, "
                f"constraints or var domains",
                rule.span,
            )

    # Driver ----------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self.check_directives()
        self.check_rule_shapes()
        self.check_calls()
        self.check_rule_variables()
        self.check_stratification()
        self.check_duplicates()
        self.check_reachability()
        return sorted(self.diags, key=lambda d: d.sort_key())


def _canonical_rule(rule: Rule) -> object:
    """Alpha-rename variables by first occurrence for duplicate detection."""
    mapping: dict[tuple[str, int], str] = {}

    def walk(term: Term) -> object:
        if isinstance(term, Var):
            key = (term.name, term.ident)
            if key not in mapping:
                mapping[key] = f"V{len(mapping)}"
            return ("v", mapping[key])
        if isinstance(term, Atom):
            return ("a", term.name)
        if isinstance(term, Num):
            return ("n", term.value)
        assert isinstance(term, Struct)
        return ("s", term.functor, tuple(walk(a) for a in term.args))

    return (walk(rule.head), tuple(walk(g) for g in rule.body))


def _indicator_text(term: Term) -> str:
    if isinstance(term, Struct):
        return f"{term.functor}/{term.arity}"
    if isinstance(term, Atom):
        return f"{term.name}/0"
    return repr(term)


def _suggest(name: str, candidates: Iterable[str], cutoff: float = 0.6) -> str | None:
    matches = difflib.get_close_matches(name, list(candidates), n=1, cutoff=cutoff)
    return matches[0] if matches else None


def _coerce(program: ProgramLike) -> tuple[tuple[Rule, ...], tuple[Directive, ...], str]:
    if isinstance(program, str):
        parsed = parse_program(program)
        return tuple(parsed.rules), tuple(parsed.directives), program
    if isinstance(program, ParsedProgram):
        return tuple(program.rules), tuple(program.directives), program.source
    if isinstance(program, WLogProgram):
        return program.rules, program.directives, program.source
    raise TypeError(f"cannot analyze {type(program).__name__}")


def analyze_program(
    program: ProgramLike,
    *,
    registry: ImportRegistry | None = None,
    extra_predicates: Iterable[Indicator] = (),
) -> list[Diagnostic]:
    """Run every static check; returns diagnostics sorted by position.

    ``program`` may be WLog source text, a :class:`ParsedProgram` or a
    :class:`WLogProgram`.  ``registry`` (when given) resolves ``import``
    names precisely; without it every import is assumed to provide the
    full workflow + cloud fact surface.  ``extra_predicates`` declares
    ``(name, arity)`` fact families a driver supplies at solve time.
    """
    rules, directives, source = _coerce(program)
    return _Analyzer(rules, directives, source, registry, extra_predicates).run()


def check_program(
    program: ProgramLike, *, registry: ImportRegistry | None = None
) -> list[Diagnostic]:
    """The fail-fast gate: raise on error diagnostics, return the rest.

    Warnings pass through (and are returned for the caller to surface).
    """
    diagnostics = analyze_program(program, registry=registry)
    source = program if isinstance(program, str) else program.source
    reject_fatal(diagnostics, source)
    return diagnostics


def reject_fatal(
    diagnostics: Sequence[Diagnostic], source: str, *, stage: str = "static analysis"
) -> None:
    """Raise :class:`WLogAnalysisError` on the error diagnostics.

    The message renders every rejected finding against ``source``;
    ``stage`` names the analysis that produced them.
    """
    fatal = [d for d in diagnostics if d.is_error]
    if fatal:
        rendered = render_diagnostics(fatal, source or None)
        noun = "diagnostic" if len(fatal) == 1 else "diagnostics"
        raise WLogAnalysisError(
            f"{stage} rejected the program with {len(fatal)} {noun}:\n{rendered}",
            diagnostics=tuple(fatal),
        )
