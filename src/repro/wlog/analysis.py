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
from collections import Counter
from operator import attrgetter
from typing import Iterable, Sequence, Union

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

#: Functors of the goals whose variables do not simply flow left to right.
_SCOPES = frozenset({"\\+", "not", "findall", "bagof", "setof", "forall", ","})

#: Comparisons whose operands are arithmetic expressions (must be bound).
_ARITH_COMPARE = frozenset({"=:=", "=\\=", "<", ">", "=<", ">="})

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


def _occurrences(term: Term, out: list[Var] | None = None) -> list[Var]:
    """The named (not ``_``-prefixed) variable occurrences of ``term``,
    left to right, appended to ``out``."""
    # ``type(...) is`` rather than ``isinstance``: the term classes have no
    # subclasses, and this walk runs once per clause term.
    if out is None:
        out = []
    if type(term) is Struct:
        for arg in term.args:
            if type(arg) is Struct:
                _occurrences(arg, out)
            elif type(arg) is Var and arg.name[:1] != "_":
                out.append(arg)
    elif type(term) is Var and term.name[:1] != "_":
        out.append(term)
    return out


_NAME = attrgetter("name")


def _named_vars(term: Term) -> set[str]:
    return set(map(_NAME, _occurrences(term)))


def _calls(
    goal: Term, negated: bool = False, out: list[tuple[Term, Indicator, bool]] | None = None
) -> list[tuple[Term, Indicator, bool]]:
    """Every predicate call in a goal tree: ``(term, indicator, negated)``.

    Built-in calls are filtered out; meta-call arguments (``findall``
    goals, negated goals...) are descended into.
    """
    if out is None:
        out = []
    if isinstance(goal, Struct):
        ind = goal.indicator
        meta = _META_GOALS.get(ind)
        if meta is not None:
            neg = negated or ind in _NEGATION
            for pos in meta:
                _calls(goal.args[pos], neg, out)
        elif ind not in BUILTINS:
            out.append((goal, ind, negated))
    elif isinstance(goal, Atom) and goal.name != "!":
        ind = (goal.name, 0)
        if ind not in BUILTINS:
            out.append((goal, ind, negated))
    return out


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
        # Every rule's body calls, walked once for the call, stratification
        # and reachability checks.
        self.rule_calls: list[list[tuple[Term, Indicator, bool]]] = [
            [call for goal in rule.body for call in _calls(goal)] for rule in self.rules
        ]

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
            hint = _suggest(name, sorted({n for (n, _a) in known} | {n for (n, _a) in BUILTINS}))
            self.emit(
                "E201",
                f"unknown predicate {name}/{arity}"
                + (f"; did you mean {hint}?" if hint else ""),
                span,
            )

        for rule, calls in zip(self.rules, self.rule_calls):
            for term, ind, _neg in calls:
                check_call(term, ind, rule.span)
        for d in self.goals:
            spec = d.payload
            if isinstance(spec, GoalSpec):
                for term, ind, _neg in _calls(spec.predicate):
                    check_call(term, ind, d.span)
        for d in self.cons:
            spec = d.payload
            if isinstance(spec, ConsSpec):
                for term, ind, _neg in _calls(spec.predicate):
                    check_call(term, ind, d.span)
        for d in self.vars:
            spec = d.payload
            if isinstance(spec, VarSpec):
                for domain in spec.domains:
                    for term, ind, _neg in _calls(domain):
                        check_call(term, ind, d.span)

    # Variable checks -------------------------------------------------------

    def check_rule_variables(self) -> None:
        for rule in self.rules:
            # One walk per clause term, shared by the singleton and flow checks.
            occurrences = [_occurrences(term) for term in (rule.head, *rule.body)]
            first: dict[str, Var] = {}
            repeated: set[str] = set()
            for occs in occurrences:
                for v in occs:
                    if v.name in first:
                        repeated.add(v.name)
                    else:
                        first[v.name] = v
            for name, v in first.items():
                if name not in repeated:
                    self.emit(
                        "W301",
                        f"singleton variable {name} (use _{name} if intentional)",
                        _goal_span(v, rule.span),
                    )
            bound = set(map(_NAME, occurrences[0]))
            for goal, occs in zip(rule.body, occurrences[1:]):
                self._flow_goal(goal, bound, rule, occs)

    def _flow_goal(
        self, goal: Term, bound: set[str], rule: Rule, occurrences: list[Var] | None = None
    ) -> set[str]:
        """Left-to-right binding propagation through one body goal.

        Adds the variables the goal binds to ``bound`` and returns it.
        ``occurrences`` are the goal's named variables when the caller has them.
        """
        if not isinstance(goal, Struct):
            return bound
        functor, arity = goal.functor, len(goal.args)
        if functor in _SCOPES:
            ind = (functor, arity)
            if ind in _NEGATION:
                inner = goal.args[0]
                for v in _occurrences(inner):
                    if v.name not in bound:
                        self.emit(
                            "E206",
                            f"variable {v.name} occurs free under \\+; negation as "
                            f"failure cannot bind it (bind it before the negation "
                            f"or use an anonymous _{v.name})",
                            _goal_span(v, rule.span),
                        )
                        bound.add(v.name)  # report once
                # Inner bindings do not escape the negation.
                self._flow_goal(inner, set(bound), rule)
                return bound
            if ind in (("findall", 3), ("bagof", 3), ("setof", 3)):
                _template, inner, result = goal.args
                self._flow_goal(inner, set(bound), rule)
                bound.update(map(_NAME, _occurrences(result)))
                return bound
            if ind == ("forall", 2):
                scratch = self._flow_goal(goal.args[0], set(bound), rule)
                self._flow_goal(goal.args[1], scratch, rule)
                return bound
            if ind == (",", 2):
                self._flow_goal(goal.args[0], bound, rule)
                return self._flow_goal(goal.args[1], bound, rule)
        # is/2, a comparison, or an ordinary call (or call/1), which may
        # bind any argument: every variable of the goal is bound after it.
        if occurrences is None:
            occurrences = _occurrences(goal)
        if arity == 2 and functor == "is":
            self._require_bound(_occurrences(goal.args[1]), bound, rule, "arithmetic (is/2)")
        elif arity == 2 and functor in _ARITH_COMPARE:
            self._require_bound(occurrences, bound, rule, f"comparison ({functor})")
        bound.update(map(_NAME, occurrences))
        return bound

    def _require_bound(self, occurrences: list[Var], bound: set[str], rule: Rule, context: str) -> None:
        for v in occurrences:
            if v.name not in bound:
                self.emit(
                    "E205",
                    f"variable {v.name} is unbound at its first use in {context}",
                    _goal_span(v, rule.span),
                )

    # Stratification --------------------------------------------------------

    def check_stratification(self) -> None:
        adjacency: dict[Indicator, set[Indicator]] = {}
        negative_edges: list[tuple[Indicator, Indicator, Rule]] = []
        for rule, calls in zip(self.rules, self.rule_calls):
            head = rule.indicator
            for _term, ind, negated in calls:
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
        # Only rules with the same head indicator and body length can be
        # equal up to renaming: the others need no canonical form.
        shapes = Counter((rule.indicator, len(rule.body)) for rule in self.rules)
        seen: dict[object, Rule] = {}
        for rule in self.rules:
            if shapes[rule.indicator, len(rule.body)] == 1:
                continue
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
                roots.update(ind for _t, ind, _n in _calls(spec.predicate))
        for d in self.cons:
            spec = d.payload
            if isinstance(spec, ConsSpec):
                roots.update(ind for _t, ind, _n in _calls(spec.predicate))
        for d in self.vars:
            spec = d.payload
            if isinstance(spec, VarSpec):
                if isinstance(spec.declaration, Struct):
                    roots.add(spec.declaration.indicator)
                for domain in spec.domains:
                    roots.update(ind for _t, ind, _n in _calls(domain))
        if any(str(d.payload) == "astar" for d in self.enabled):
            roots.update({("cal_g_score", 1), ("est_h_score", 1)})

        adjacency: dict[Indicator, set[Indicator]] = {}
        for rule, calls in zip(self.rules, self.rule_calls):
            adjacency.setdefault(rule.indicator, set()).update(ind for _t, ind, _n in calls)
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
