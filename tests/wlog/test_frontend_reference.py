"""The WLog front end against the character-at-a-time reference.

``reference_frontend.py`` keeps the tokenizer and parser the one-regex
lexer and one-lookahead parser replaced.  On every bundled template,
every ``examples/*.wlog``, grammar-generated programs and token soups,
the two must agree exactly: tokens as (kind, value, line, column);
rules and directives with every span; and on bad input the same error
type, message, line and column.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WLogError
from repro.wlog import lexer, parser
from repro.wlog.library import bundled_programs, scheduling_program
from repro.wlog.program import Directive
from repro.wlog.terms import Atom, Num, Rule, Struct, Var

from . import reference_frontend as reference

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: The program of the ``wlog-declarative`` benchmark workload.
BENCHMARK_PROGRAM = scheduling_program(
    cloud="amazonec2", workflow="pipeline", percentile=96.0, deadline_seconds=1234.5
)

SOURCES = {
    **{f"bundled:{name}": source for name, (source, _extra) in bundled_programs().items()},
    **{f"example:{path.name}": path.read_text() for path in sorted(EXAMPLES.glob("*.wlog"))},
    "benchmark": BENCHMARK_PROGRAM,
}


def shape(x):
    """Everything the parser decides about ``x``, spans and Span types included."""
    if isinstance(x, Var):
        return ("Var", x.name, x.ident, _span(x.span))
    if isinstance(x, Atom):
        return ("Atom", x.name, _span(x.span))
    if isinstance(x, Num):
        return ("Num", repr(x.value))
    if isinstance(x, Struct):
        return ("Struct", x.functor, _span(x.span), tuple(map(shape, x.args)))
    if isinstance(x, Rule):
        return ("Rule", shape(x.head), tuple(map(shape, x.body)), _span(x.span))
    if isinstance(x, Directive):
        return ("Directive", x.kind, shape(x.payload), _span(x.span))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            shape(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    if isinstance(x, (tuple, list)):
        return tuple(map(shape, x))
    return x


def _span(span):
    return None if span is None else (type(span).__name__, tuple(span))


def outcome(fn, text):
    """``("ok", shape)`` or ``("error", type, message, line, column)``."""
    try:
        result = fn(text)
    except WLogError as exc:
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    return ("ok", result)


def tokens_of(tokenize):
    return lambda text: [(t.kind, t.value, t.line, t.column) for t in tokenize(text)]


def program_of(parse_program):
    def parse(text):
        program = parse_program(text)
        return (shape(program.rules), shape(program.directives), program.source)
    return parse


def assert_same_front_end(text: str) -> None:
    assert outcome(tokens_of(lexer.tokenize), text) == outcome(
        tokens_of(reference.tokenize), text
    )
    assert outcome(program_of(parser.parse_program), text) == outcome(
        program_of(reference.parse_program), text
    )
    for new, old in ((parser.parse_term, reference.parse_term),
                     (parser.parse_query, reference.parse_query)):
        assert outcome(lambda t: shape(new(t)), text) == outcome(lambda t: shape(old(t)), text)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_shipped_program(name):
    text = SOURCES[name]
    assert_same_front_end(text)
    assert outcome(lexer.tokenize, text)[0] == "ok"
    assert outcome(parser.parse_program, text)[0] == "ok"


# Grammar-generated programs ---------------------------------------------------

ATOMS = st.sampled_from(
    ["a", "bc", "task", "m1_small", "'m1.small'", "'it\\'s'", "\"dq\"", "'a\\nb'", "é", "[]"]
)
VARS = st.sampled_from(["X", "Y", "Tid", "_", "_Z2", "Ñ"])
NUMBERS = st.sampled_from(["0", "3", "1.5", "95%", "99.9%", "10h", "2m", "45s", "1d", ".5", "٣"])
SPACE = st.sampled_from(["", " ", "  ", "\n", "\t", " /* c */ ", "/*\n*/", "\r\n"])


@st.composite
def terms(draw, depth=2):
    kind = draw(st.integers(0, 8 if depth else 2))
    if kind == 0:
        return draw(ATOMS)
    if kind == 1:
        return draw(VARS)
    if kind == 2:
        return draw(NUMBERS)
    sub = terms(depth=depth - 1)
    if kind == 3:
        args = draw(st.lists(sub, min_size=1, max_size=3))
        return f"{draw(ATOMS)}({', '.join(args)})"
    if kind == 4:
        items = draw(st.lists(sub, max_size=3))
        tail = draw(st.one_of(st.just(""), VARS.map(lambda v: f"|{v}")))
        return f"[{', '.join(items)}{tail if items else ''}]"
    if kind == 5:
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"{draw(sub)}{draw(SPACE)}{op}{draw(SPACE)}{draw(sub)}"
    if kind == 6:
        return f"-{draw(sub)}"
    if kind == 7:
        return f"({draw(sub)})"
    return f"({draw(goals())})"


@st.composite
def goals(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(terms())
    if kind == 1:
        op = draw(st.sampled_from(["is", "==", "\\==", "=<", ">=", "=:=", "=\\=", "<", ">", "="]))
        return f"{draw(terms())} {op} {draw(terms())}"
    if kind == 2:
        return f"\\+ {draw(terms())}"
    if kind == 3:
        return "!"
    return ", ".join(draw(st.lists(terms(depth=1), min_size=1, max_size=3)))


@st.composite
def clauses(draw):
    kind = draw(st.integers(0, 8))
    if kind == 0:
        return f"{draw(terms())}."
    if kind == 1:
        body = ", ".join(draw(st.lists(goals(), min_size=1, max_size=4)))
        return f"{draw(terms())} :- {body}."
    if kind == 2:
        return f"import({draw(ATOMS)})."
    if kind == 3:
        return f"enabled({draw(ATOMS)})."
    if kind == 4:
        return f"goal {draw(st.sampled_from(['minimize', 'maximize']))} {draw(VARS)} in {draw(terms())}."
    if kind == 5:
        return f"cons {draw(VARS)} in {draw(terms())} satisfies deadline({draw(NUMBERS)}, {draw(NUMBERS)})."
    if kind == 6:
        return f"cons {draw(terms())}."
    if kind == 7:
        return f"var {draw(terms())} forall {draw(terms())} and {draw(terms())}."
    return f"fault_model({draw(NUMBERS)}, {draw(NUMBERS)})."


@given(st.lists(st.tuples(clauses(), SPACE), max_size=6))
@settings(max_examples=300)
def test_grammar_generated_programs(parts):
    assert_same_front_end("".join(clause + space for clause, space in parts))


# Token soups ---------------------------------------------------------------------

FRAGMENTS = st.sampled_from([
    "a", "X", "_", "_G1", "is", "goal", "minimize", "in", "cons", "satisfies", "var", "forall",
    "and", "import", "enabled", "fault_model", "(", ")", ",", ".", ":-", "[", "]", "|", "!",
    "\\+", "=", "==", "=<", ">=", "=:=", "=\\=", "->", "<", ">", "+", "-", "*", "/",
    "/*", "*/", "/* note */", "'", '"', "\\", "'q'", "'a\\'b'", "'a\\\nb'", "\"x\\ty\"",
    "\n", " ", "\t", "\r", "%", "95%", "10h", "3hz", "2m", "45s", "1d", "1.5.3", "3.", ".5",
    "0.25", "é", "Ñame", "x²", "²", "٣", "½", "Ⅻ", "@", "#", "$", "\x0b", "~",
])


@given(st.lists(FRAGMENTS, max_size=25), st.sampled_from(["", " ", "\n"]))
@settings(max_examples=500)
def test_token_soups(fragments, joiner):
    assert_same_front_end(joiner.join(fragments))


@given(st.text(alphabet="ab XY_(),.:-%'\"\\/*\n \t1.5hé²@", max_size=40))
@settings(max_examples=300)
def test_junk(text):
    assert_same_front_end(text)
