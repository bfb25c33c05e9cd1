"""The character-at-a-time WLog tokenizer and parser the front end replaced.

A test reference, the way ``tests/solver/test_expand.py`` keeps the
scalar loops: ``test_frontend_reference.py`` requires that
:func:`repro.wlog.lexer.tokenize` and :func:`repro.wlog.parser.parse_program`
give exactly what these give -- tokens, terms, spans, directives, and
on bad input the same error, message and position.

Five defects of the original are fixed here as they are in the front
end, so the two can be held equal:

* only decimal digits start or continue a number (``'²'.isdigit()`` is
  true but ``float('²')`` raises ``ValueError``);
* an escaped newline inside a quoted atom counts as a line, not a column;
* at end of input an error says ``end of input``, not ``None``;
* each ``_`` becomes ``_#1``, ``_#2``, ... in order of appearance in one
  parse (a name no source variable can spell), not ``_G<id(token)>``.
* a clause head that is not an atom or struct (``X :- foo.``, ``3.``) and
  a ``var`` declaration that is not compound are syntax errors at their
  first token, not position-less errors from ``Rule`` / ``VarSpec``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NoReturn

from repro.common.errors import WLogSyntaxError
from repro.wlog.diagnostics import Span
from repro.wlog.parser import ParsedProgram
from repro.wlog.program import ConsSpec, Directive, FaultSpec, GoalSpec, VarSpec
from repro.wlog.terms import NIL, Atom, Num, Rule, Struct, Term, Var, make_list

_OPERATORS = (
    ":-", "\\==", "==", "=<", ">=", "=:=", "=\\=", "->", "\\+",
    "=", "<", ">", "+", "-", "*", "/", ",", "(", ")", "[", "]", "|", "!",
)

_UNIT_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_COMPARISONS = ("==", "\\==", "=<", ">=", "=:=", "=\\=", "<", ">", "=")


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def error(msg: str) -> NoReturn:
        raise WLogSyntaxError(msg, line, col, source=text)

    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                error("unterminated /* comment")
            for c in text[i : end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue

        start_line, start_col = line, col

        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    if j + 1 >= n or not text[j + 1].isdecimal():
                        break
                    seen_dot = True
                j += 1
            value = float(text[i:j])
            kind = "NUM"
            if j < n and text[j] == "%":
                kind = "PERCENT"
                j += 1
            elif (
                j < n
                and text[j] in _UNIT_SECONDS
                and (j + 1 >= n or not (text[j + 1].isalnum() or text[j + 1] == "_"))
            ):
                value *= _UNIT_SECONDS[text[j]]
                j += 1
            col += j - i
            tokens.append(Token(kind, value, start_line, start_col))
            i = j
            continue

        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            newlines, line_start = 0, i
            while j < n and text[j] != quote:
                if text[j] == "\n":
                    error("unterminated quoted atom")
                if text[j] == "\\" and j + 1 < n:
                    buf.append({"n": "\n", "t": "\t", "\\": "\\", quote: quote}.get(text[j + 1], text[j + 1]))
                    if text[j + 1] == "\n":
                        newlines, line_start = newlines + 1, j + 2
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                error("unterminated quoted atom")
            if newlines:
                line += newlines
                col = j + 2 - line_start
            else:
                col += j + 1 - i
            tokens.append(Token("ATOM", "".join(buf), start_line, start_col))
            i = j + 1
            continue

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "VAR" if (word[0].isupper() or word[0] == "_") else "ATOM"
            col += j - i
            tokens.append(Token(kind, word, start_line, start_col))
            i = j
            continue

        if ch == ".":
            tokens.append(Token("END", ".", start_line, start_col))
            i += 1
            col += 1
            continue

        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("PUNCT", op, start_line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            error(f"unexpected character {ch!r}")

    tokens.append(Token("EOF", None, line, col))
    return tokens


def _token_span(tok: Token, length: int = 1) -> Span:
    return Span(tok.line, tok.column, tok.line, tok.column + length)


def _found(tok: Token) -> str:
    return "end of input" if tok.kind == "EOF" else repr(tok.value)


class _Parser:
    def __init__(self, tokens: list[Token], source: str = ""):
        self.tokens = tokens
        self.source = source
        self.pos = 0
        self.anonymous = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, msg: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.cur
        raise WLogSyntaxError(msg, tok.line, tok.column, source=self.source)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, kind: str, value: object | None = None) -> bool:
        tok = self.cur
        return tok.kind == kind and (value is None or tok.value == value)

    def at_atom(self, name: str) -> bool:
        return self.at("ATOM", name)

    def expect(self, kind: str, value: object | None = None) -> Token:
        if not self.at(kind, value):
            want = value if value is not None else kind
            self.error(f"expected {want!r}, found {_found(self.cur)}")
        return self.advance()

    def parse_program(self) -> ParsedProgram:
        out = ParsedProgram(source=self.source)
        while not self.at("EOF"):
            self.parse_clause(out)
        return out

    def _clause_span(self, start: Token) -> Span:
        end = self.tokens[self.pos - 1]
        return Span(start.line, start.column, end.line, end.column + 1)

    def parse_clause(self, out: ParsedProgram) -> None:
        start = self.cur
        if self.at_atom("goal"):
            self.advance()
            directive = self.parse_goal_directive()
        elif self.at_atom("cons"):
            self.advance()
            directive = self.parse_cons_directive()
        elif self.at_atom("var") and not self._looks_like_callable():
            self.advance()
            directive = self.parse_var_directive()
        else:
            term = self.parse_goal_term()
            if not isinstance(term, (Atom, Struct)):
                self.error(f"rule head must be an atom or struct, got {term!r}", start)
            directive = self._classify_directive(term)
            if directive is not None and not self.at("PUNCT", ":-"):
                self.expect("END")
                out.directives.append(
                    dataclasses.replace(directive, span=self._clause_span(start))
                )
                return
            if self.at("PUNCT", ":-"):
                self.advance()
                body = tuple(self.parse_body())
            else:
                body = ()
            self.expect("END")
            out.rules.append(Rule(term, body, span=self._clause_span(start)))
            return
        out.directives.append(dataclasses.replace(directive, span=self._clause_span(start)))

    def _looks_like_callable(self) -> bool:
        nxt = self.tokens[self.pos + 1]
        return nxt.kind == "PUNCT" and nxt.value == "("

    @staticmethod
    def _classify_directive(term: Term) -> Directive | None:
        if isinstance(term, Struct) and term.indicator == ("import", 1):
            arg = term.args[0]
            if isinstance(arg, Atom):
                return Directive("import", arg.name)
        if isinstance(term, Struct) and term.indicator == ("enabled", 1):
            arg = term.args[0]
            if isinstance(arg, Atom):
                return Directive("enabled", arg.name)
        if isinstance(term, Struct) and term.indicator == ("fault_model", 2):
            rate, mtbf = term.args
            if isinstance(rate, Num) and isinstance(mtbf, Num):
                return Directive(
                    "fault_model", FaultSpec(rate=float(rate.value), mtbf=float(mtbf.value))
                )
        return None

    def parse_goal_directive(self) -> Directive:
        if self.at_atom("minimize") or self.at_atom("maximize"):
            mode = self.advance().value
        else:
            self.error("goal directive must start with 'minimize' or 'maximize'")
        objective = self.parse_expression()
        if not isinstance(objective, Var):
            self.error("goal objective must be a variable (e.g. 'minimize Ct in ...')")
        self.expect("ATOM", "in")
        pred = self.parse_goal_term()
        self.expect("END")
        return Directive("goal", GoalSpec(mode=str(mode), objective=objective, predicate=pred))

    def parse_cons_directive(self) -> Directive:
        first = self.parse_expression()
        variable: Var | None = None
        predicate: Term
        if isinstance(first, Var) and self.at_atom("in"):
            variable = first
            self.advance()
            predicate = self.parse_goal_term()
        else:
            predicate = first
        requirement: Term | None = None
        if self.at_atom("satisfies"):
            self.advance()
            requirement = self.parse_goal_term()
        self.expect("END")
        return Directive(
            "cons", ConsSpec(variable=variable, predicate=predicate, requirement=requirement)
        )

    def parse_var_directive(self) -> Directive:
        start = self.cur
        decl = self.parse_goal_term()
        if not isinstance(decl, Struct):
            self.error(f"var declaration must be compound, got {decl!r}", start)
        domains: list[Term] = []
        if self.at_atom("forall"):
            self.advance()
            domains.append(self.parse_goal_term())
            while self.at_atom("and"):
                self.advance()
                domains.append(self.parse_goal_term())
        self.expect("END")
        return Directive("var", VarSpec(declaration=decl, domains=tuple(domains)))

    def parse_body(self) -> list[Term]:
        goals = [self.parse_goal_term()]
        while self.at("PUNCT", ","):
            self.advance()
            goals.append(self.parse_goal_term())
        return goals

    def parse_goal_term(self) -> Term:
        if self.at("PUNCT", "!"):
            tok = self.advance()
            return Atom("!", span=_token_span(tok))
        if self.at("PUNCT", "\\+"):
            tok = self.advance()
            return Struct("\\+", (self.parse_goal_term(),), span=_token_span(tok, 2))
        left = self.parse_expression()
        if self.at_atom("is"):
            tok = self.advance()
            return Struct("is", (left, self.parse_expression()), span=_token_span(tok, 2))
        for op in _COMPARISONS:
            if self.at("PUNCT", op):
                tok = self.advance()
                return Struct(op, (left, self.parse_expression()), span=_token_span(tok, len(op)))
        return left

    def parse_expression(self) -> Term:
        left = self.parse_mul()
        while self.at("PUNCT", "+") or self.at("PUNCT", "-"):
            op = self.advance().value
            left = Struct(str(op), (left, self.parse_mul()))
        return left

    def parse_mul(self) -> Term:
        left = self.parse_primary()
        while self.at("PUNCT", "*") or self.at("PUNCT", "/"):
            op = self.advance().value
            left = Struct(str(op), (left, self.parse_primary()))
        return left

    def parse_primary(self) -> Term:
        tok = self.cur
        if tok.kind in ("NUM", "PERCENT"):
            self.advance()
            return Num(float(tok.value))
        if tok.kind == "PUNCT" and tok.value == "-":
            self.advance()
            inner = self.parse_primary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Struct("-", (Num(0.0), inner))
        if tok.kind == "VAR":
            self.advance()
            span = _token_span(tok, len(str(tok.value)))
            if tok.value == "_":
                self.anonymous += 1
                return Var(f"_#{self.anonymous}", span=span)
            return Var(str(tok.value), span=span)
        if tok.kind == "ATOM":
            self.advance()
            name = str(tok.value)
            span = _token_span(tok, len(name))
            if self.at("PUNCT", "("):
                self.advance()
                args = [self.parse_goal_term()]
                while self.at("PUNCT", ","):
                    self.advance()
                    args.append(self.parse_goal_term())
                self.expect("PUNCT", ")")
                return Struct(name, tuple(args), span=span)
            return Atom(name, span=span)
        if tok.kind == "PUNCT" and tok.value == "(":
            self.advance()
            inner = self.parse_goal_term()
            conj = [inner]
            while self.at("PUNCT", ","):
                self.advance()
                conj.append(self.parse_goal_term())
            self.expect("PUNCT", ")")
            inner = conj[-1]
            for g in reversed(conj[:-1]):
                inner = Struct(",", (g, inner))
            return inner
        if tok.kind == "PUNCT" and tok.value == "[":
            return self.parse_list()
        if tok.kind == "EOF":
            self.error("unexpected end of input")
        self.error(f"unexpected token {tok.value!r}")

    def parse_list(self) -> Term:
        self.expect("PUNCT", "[")
        if self.at("PUNCT", "]"):
            self.advance()
            return NIL
        items = [self.parse_goal_term()]
        while self.at("PUNCT", ","):
            self.advance()
            items.append(self.parse_goal_term())
        tail: Term = NIL
        if self.at("PUNCT", "|"):
            self.advance()
            tail = self.parse_goal_term()
        self.expect("PUNCT", "]")
        return make_list(items, tail)


def parse_program(text: str) -> ParsedProgram:
    return _Parser(tokenize(text), source=text).parse_program()


def parse_term(text: str) -> Term:
    parser = _Parser(tokenize(text), source=text)
    term = parser.parse_goal_term()
    if not parser.at("EOF") and not parser.at("END"):
        parser.error(f"trailing input after term: {parser.cur.value!r}")
    return term


def parse_query(text: str) -> list[Term]:
    parser = _Parser(tokenize(text), source=text)
    goals = parser.parse_body()
    if not parser.at("EOF") and not parser.at("END"):
        parser.error(f"trailing input after query: {parser.cur.value!r}")
    return goals
