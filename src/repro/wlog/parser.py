"""WLog parser: Prolog clauses plus the WLog directive forms.

Directive surface syntax (paper Example 1)::

    import(amazonec2).
    import(montage).
    goal minimize Ct in totalcost(Ct).
    cons T in maxtime(Path,T) satisfies deadline(95%, 10h).
    var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).
    enabled(astar).

Everything else is a Prolog rule/fact.  Rule bodies support the
arithmetic/comparison operators used by the paper's programs
(``is``, ``==``, ``\\==``, ``<``, ``>``, ``=<``, ``>=``, ``=:=``,
``=\\=``, ``=``, ``+``, ``-``, ``*``, ``/``), negation-as-failure
``\\+`` and cut ``!``.

Recursive descent over the lexer's ``(tag, value, line, column)`` tuples
(:func:`repro.wlog.lexer.scan`).  One method, :meth:`_Parser.term`,
parses a term at one of three levels -- a goal (``!``, ``\\+``, a
comparison), an arithmetic expression, or a primary -- so a leaf with no
operator after it costs one call, and every decision looks at the
current token's tag once.
"""

from __future__ import annotations

from typing import NoReturn

from repro.common.errors import WLogSyntaxError
from repro.wlog.diagnostics import Span
from repro.wlog.lexer import scan
from repro.wlog.program import ConsSpec, Directive, FaultSpec, GoalSpec, VarSpec
from repro.wlog.terms import NIL, Atom, Num, Rule, Struct, Term, Var, make_list

__all__ = ["parse_program", "parse_term", "parse_query", "ParsedProgram"]

#: Term levels, loosest first: what :meth:`_Parser.term` may consume.
_GOAL, _EXPRESSION, _PRIMARY = 0, 1, 2

#: Comparison operator -> length of its span.
_COMPARISONS = {op: len(op) for op in ("==", "\\==", "=<", ">=", "=:=", "=\\=", "<", ">", "=")}

_ARITHMETIC = frozenset({"+", "-", "*", "/"})

class ParsedProgram:
    """The raw parse result: rules plus classified directives.

    ``source`` keeps the original text so diagnostics can render caret
    excerpts; rules and directives carry their clause spans.
    """

    def __init__(self, source: str = ""):
        self.rules: list[Rule] = []
        self.directives: list[Directive] = []
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParsedProgram(rules={len(self.rules)}, directives={len(self.directives)})"


class _Parser:
    def __init__(self, source: str):
        self.tokens = scan(source)
        self.source = source
        self.pos = 0
        self.anonymous = 0  # '_' occurrences so far: the nth is named _#n

    # Errors -------------------------------------------------------------

    def error(self, msg: str, pos: int | None = None) -> NoReturn:
        """Raise at the token ``pos`` (default: the current one)."""
        _tag, _value, line, column = self.tokens[self.pos if pos is None else pos]
        raise WLogSyntaxError(msg, line, column, source=self.source)

    def expect(self, tag: str) -> None:
        """Consume a token tagged ``tag`` (``END`` or an operator)."""
        if self.tokens[self.pos][0] != tag:
            self.error(f"expected {tag!r}, found {self.found()}")
        self.pos += 1

    def found(self) -> str:
        tag, value, _line, _column = self.tokens[self.pos]
        return "end of input" if tag == "EOF" else repr(value)

    def at_word(self, word: str) -> bool:
        tag, value, _line, _column = self.tokens[self.pos]
        return tag == "ATOM" and value == word

    # Program -----------------------------------------------------------

    def parse_program(self) -> ParsedProgram:
        out = ParsedProgram(source=self.source)
        tokens = self.tokens
        while tokens[self.pos][0] != "EOF":
            self.parse_clause(out)
        return out

    def parse_clause(self, out: ParsedProgram) -> None:
        tokens, start = self.tokens, self.pos
        tag, word, _line, _column = tokens[start]
        if tag == "ATOM" and word in ("goal", "cons", "var") and (
            word != "var" or tokens[start + 1][0] != "("  # a predicate named var
        ):
            self.pos += 1
            payload: object
            if word == "goal":
                payload = self.parse_goal_directive()
            elif word == "cons":
                payload = self.parse_cons_directive()
            else:
                payload = self.parse_var_directive()
            out.directives.append(Directive(word, payload, self._clause_span(start)))
            return
        head = self.term(_GOAL)
        if not isinstance(head, (Atom, Struct)):
            self.error(f"rule head must be an atom or struct, got {head!r}", start)
        neck = tokens[self.pos][0] == ":-"
        classified = None if neck else _classify_directive(head)
        if classified is not None:
            self.expect("END")
            out.directives.append(Directive(*classified, self._clause_span(start)))
            return
        body: tuple[Term, ...] = ()
        if neck:
            self.pos += 1
            body = tuple(self.parse_body())
        self.expect("END")
        out.rules.append(Rule(head, body, span=self._clause_span(start)))

    def _clause_span(self, start: int) -> Span:
        """Span from a clause's first token through its just-consumed END."""
        _tag, _value, line, column = self.tokens[start]
        _tag, _value, end_line, end_column = self.tokens[self.pos - 1]
        return Span(line, column, end_line, end_column + 1)

    # Directives ----------------------------------------------------------

    def parse_goal_directive(self) -> GoalSpec:
        if not (self.at_word("minimize") or self.at_word("maximize")):
            self.error("goal directive must start with 'minimize' or 'maximize'")
        mode = self.tokens[self.pos][1]
        self.pos += 1
        objective = self.term(_EXPRESSION)
        if not isinstance(objective, Var):
            self.error("goal objective must be a variable (e.g. 'minimize Ct in ...')")
        if not self.at_word("in"):
            self.error(f"expected 'in', found {self.found()}")
        self.pos += 1
        predicate = self.term(_GOAL)
        self.expect("END")
        return GoalSpec(mode=mode, objective=objective, predicate=predicate)

    def parse_cons_directive(self) -> ConsSpec:
        first = self.term(_EXPRESSION)
        variable: Var | None = None
        predicate = first
        if isinstance(first, Var) and self.at_word("in"):
            variable = first
            self.pos += 1
            predicate = self.term(_GOAL)
        requirement: Term | None = None
        if self.at_word("satisfies"):
            self.pos += 1
            requirement = self.term(_GOAL)
        self.expect("END")
        return ConsSpec(variable=variable, predicate=predicate, requirement=requirement)

    def parse_var_directive(self) -> VarSpec:
        start = self.pos
        declaration = self.term(_GOAL)
        if not isinstance(declaration, Struct):
            self.error(f"var declaration must be compound, got {declaration!r}", start)
        domains: list[Term] = []
        if self.at_word("forall"):
            self.pos += 1
            domains.append(self.term(_GOAL))
            while self.at_word("and"):
                self.pos += 1
                domains.append(self.term(_GOAL))
        self.expect("END")
        return VarSpec(declaration=declaration, domains=tuple(domains))

    # Terms -----------------------------------------------------------------

    def parse_body(self) -> list[Term]:
        """Goals separated by ``,`` (a rule body, arguments, a list)."""
        goals = [self.term(_GOAL)]
        tokens = self.tokens
        while tokens[self.pos][0] == ",":
            self.pos += 1
            goals.append(self.term(_GOAL))
        return goals

    def term(self, level: int) -> Term:
        """One term at ``level``: a goal, an expression or a primary.

        A goal is ``!``, ``\\+ Goal``, or an expression optionally joined
        to another by ``is`` or a comparison; an expression is primaries
        joined by ``* /`` and then ``+ -`` (left-associative).
        """
        tokens = self.tokens
        pos = self.pos
        tag, value, line, column = tokens[pos]
        if tag == "ATOM":
            span = Span(line, column, line, column + len(value))
            if tokens[pos + 1][0] == "(":
                self.pos = pos + 2
                args = self.parse_body()
                self.expect(")")
                left: Term = Struct(value, args, span)
            else:
                self.pos = pos + 1
                left = Atom(value, span)
        elif tag == "VAR":
            span = Span(line, column, line, column + len(value))
            if value == "_":
                # Each underscore is a distinct anonymous variable, named
                # by its place in this parse with a '#' no source can spell.
                self.anonymous += 1
                value = f"_#{self.anonymous}"
            self.pos = pos + 1
            left = Var(value, 0, span)
        elif tag == "NUM" or tag == "PERCENT":
            self.pos = pos + 1
            left = Num(value)
        elif tag == "(":
            # A parenthesized conjunction (e.g. inside findall/3) becomes
            # nested ','/2 structures, right-associated.
            self.pos = pos + 1
            conj = self.parse_body()
            self.expect(")")
            left = conj[-1]
            for goal in reversed(conj[:-1]):
                left = Struct(",", (goal, left))
        elif tag == "[":
            left = self.parse_list()
        elif tag == "-":
            self.pos = pos + 1
            inner = self.term(_PRIMARY)
            left = Num(-inner.value) if isinstance(inner, Num) else Struct("-", (Num(0.0), inner))
        elif level == _GOAL and tag == "!":
            self.pos = pos + 1
            return Atom("!", Span(line, column, line, column + 1))
        elif level == _GOAL and tag == "\\+":
            self.pos = pos + 1
            return Struct("\\+", (self.term(_GOAL),), Span(line, column, line, column + 2))
        elif tag == "EOF":
            self.error("unexpected end of input")
        else:
            self.error(f"unexpected token {value!r}")

        if level == _PRIMARY:
            return left
        tag, value, line, column = tokens[self.pos]
        if tag in _ARITHMETIC:
            left = self._arithmetic(left)
            tag, value, line, column = tokens[self.pos]
        if level == _GOAL:
            length = _COMPARISONS.get(tag)
            if length is None and tag == "ATOM" and value == "is":
                tag, length = "is", 2
            if length is not None:
                self.pos += 1
                right = self.term(_EXPRESSION)
                return Struct(tag, (left, right), Span(line, column, line, column + length))
        return left

    def _arithmetic(self, left: Term) -> Term:
        """The ``* /`` then ``+ -`` operators after the primary ``left``."""
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "*" or op == "/":
            self.pos += 1
            left = Struct(op, (left, self.term(_PRIMARY)))
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            right = self.term(_PRIMARY)
            while (mul := tokens[self.pos][0]) == "*" or mul == "/":
                self.pos += 1
                right = Struct(mul, (right, self.term(_PRIMARY)))
            left = Struct(op, (left, right))
        return left

    def parse_list(self) -> Term:
        self.pos += 1  # '['
        tokens = self.tokens
        if tokens[self.pos][0] == "]":
            self.pos += 1
            return NIL
        items = self.parse_body()
        tail: Term = NIL
        if tokens[self.pos][0] == "|":
            self.pos += 1
            tail = self.term(_GOAL)
        self.expect("]")
        return make_list(items, tail)

    def expect_end_of_input(self, what: str) -> None:
        tag, value, _line, _column = self.tokens[self.pos]
        if tag not in ("EOF", "END"):
            self.error(f"trailing input after {what}: {value!r}")


def _classify_directive(term: Term) -> tuple[str, object] | None:
    """``import(a)``, ``enabled(a)`` and ``fault_model(R, M)`` facts."""
    if not isinstance(term, Struct):
        return None
    indicator = term.indicator
    if indicator == ("import", 1) or indicator == ("enabled", 1):
        arg = term.args[0]
        if isinstance(arg, Atom):
            return term.functor, arg.name
    elif indicator == ("fault_model", 2):
        rate, mtbf = term.args
        if isinstance(rate, Num) and isinstance(mtbf, Num):
            return "fault_model", FaultSpec(rate=float(rate.value), mtbf=float(mtbf.value))
    return None


# Public API -------------------------------------------------------------------


def parse_program(text: str) -> ParsedProgram:
    """Parse WLog source into rules + directives."""
    return _Parser(text).parse_program()


def parse_term(text: str) -> Term:
    """Parse a single term (no trailing period required)."""
    parser = _Parser(text)
    term = parser.term(_GOAL)
    parser.expect_end_of_input("term")
    return term


def parse_query(text: str) -> list[Term]:
    """Parse a comma-separated conjunction of goals (no trailing period)."""
    parser = _Parser(text)
    goals = parser.parse_body()
    parser.expect_end_of_input("query")
    return goals
