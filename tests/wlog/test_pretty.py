"""Tests for the WLog pretty-printer (round-trips with the parser)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wlog.library import ensemble_program, followcost_program, scheduling_program
from repro.wlog.parser import parse_program, parse_term
from repro.wlog.program import WLogProgram
from repro.wlog.terms import Atom, Num, Struct, Var, make_list

from .pretty import format_program, format_rule, format_term


class TestFormatTerm:
    @pytest.mark.parametrize(
        "text",
        [
            "foo",
            "Bar",
            "f(a, B, 3)",
            "[1, 2, 3]",
            "[]",
            "cost(Tid, Vid, C)",
            "f(g(h(X)))",
        ],
    )
    def test_roundtrip_simple(self, text):
        term = parse_term(text)
        assert parse_term(format_term(term)) == term

    def test_infix_arithmetic_roundtrips(self):
        term = parse_term("C is T * Up + B / 2")
        assert parse_term(format_term(term)) == term

    def test_comparison_roundtrips(self):
        for text in ("X == 1", "Z \\== Y", "A =< B", "A =:= B"):
            term = parse_term(text)
            assert parse_term(format_term(term)) == term

    def test_negation_roundtrips(self):
        term = parse_term("\\+ bad(X)")
        assert parse_term(format_term(term)) == term

    def test_quoted_atom(self):
        term = Atom("m1.small")
        assert format_term(term) == "'m1.small'"
        assert parse_term(format_term(term)) == term

    def test_improper_list(self):
        term = make_list([Num(1.0)], tail=Var("T"))
        assert parse_term(format_term(term)) == term

    def test_floats(self):
        assert format_term(Num(2.5)) == "2.5"
        assert format_term(Num(3.0)) == "3"

    def test_conjunction(self):
        term = parse_term("(a(X), b(X))")
        assert parse_term(format_term(term)) == term


class TestFormatRule:
    def test_fact(self):
        rule = parse_program("edge(a, b).").rules[0]
        assert format_rule(rule) == "edge(a, b)."

    def test_rule_roundtrip(self):
        src = "cost(T, V, C) :- price(V, U), exetime(T, V, X), C is ((X * U) / 3600)."
        rule = parse_program(src).rules[0]
        back = parse_program(format_rule(rule)).rules[0]
        assert back == rule


class TestFormatProgram:
    @pytest.mark.parametrize(
        "source",
        [
            scheduling_program(percentile=95, deadline_seconds=36000),
            scheduling_program(astar=True),
            ensemble_program(budget=12.5),
            followcost_program(deadline_seconds=7200.0),
        ],
    )
    def test_library_programs_roundtrip(self, source):
        program = WLogProgram.from_source(source)
        text = format_program(program)
        back = WLogProgram.from_source(text)
        assert back.imports == program.imports
        assert back.enabled == program.enabled
        assert (back.goal is None) == (program.goal is None)
        if program.goal:
            assert back.goal.mode == program.goal.mode
            assert back.goal.predicate == program.goal.predicate
        assert len(back.constraints) == len(program.constraints)
        assert len(back.rules) == len(program.rules)
        for a, b in zip(back.rules, program.rules):
            assert a.indicator == b.indicator


atoms = st.sampled_from(["a", "bc", "m1_small", "task_01"])
variables = st.sampled_from(["X", "Y", "Tid", "Vid"])
numbers = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda x: round(x, 4))


@st.composite
def terms(draw, depth=2):
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Atom(draw(atoms))
        if kind == 1:
            return Var(draw(variables))
        return Num(draw(numbers))
    kind = draw(st.integers(0, 4))
    if kind <= 2:
        return draw(terms(depth=0))
    if kind == 3:
        n = draw(st.integers(1, 3))
        args = tuple(draw(terms(depth=depth - 1)) for _ in range(n))
        return Struct(draw(atoms), args)
    items = [draw(terms(depth=depth - 1)) for _ in range(draw(st.integers(0, 3)))]
    return make_list(items)


@given(terms())
@settings(max_examples=100)
def test_property_format_parse_roundtrip(term):
    assert parse_term(format_term(term)) == term
