"""Tests for the WLog parser."""

import pytest

from repro.common.errors import WLogSyntaxError
from repro.wlog.parser import parse_program, parse_query, parse_term
from repro.wlog.program import ConsSpec, GoalSpec, VarSpec
from repro.wlog.terms import Atom, Num, Struct, Var


class TestTerms:
    def test_compound(self):
        t = parse_term("cost(Tid, Vid, C)")
        assert isinstance(t, Struct)
        assert t.indicator == ("cost", 3)
        assert t.args[0] == Var("Tid")

    def test_nested(self):
        t = parse_term("f(g(X), 3)")
        assert t.args[0].indicator == ("g", 1)

    def test_arithmetic_precedence(self):
        t = parse_term("C is T * Up + B")
        assert t.functor == "is"
        rhs = t.args[1]
        assert rhs.functor == "+"
        assert rhs.args[0].functor == "*"

    def test_division(self):
        t = parse_term("C is T * Up / 3600")
        rhs = t.args[1]
        assert rhs.functor == "/"

    def test_parenthesized_arithmetic(self):
        t = parse_term("C is (A + B) * 2")
        assert t.args[1].functor == "*"
        assert t.args[1].args[0].functor == "+"

    def test_negative_number(self):
        assert parse_term("-4") == Num(-4.0)

    def test_unary_minus_on_var(self):
        t = parse_term("0 - X")
        assert t.functor == "-"

    def test_lists(self):
        t = parse_term("[Z, T1]")
        assert repr(t) == "[Z, T1]"

    def test_list_with_tail(self):
        t = parse_term("[H|T]")
        assert t.functor == "."
        assert t.args[1] == Var("T")

    def test_comparisons(self):
        assert parse_term("Con == 1").functor == "=="
        assert parse_term("Z \\== Y").functor == "\\=="
        assert parse_term("A =< B").functor == "=<"

    def test_negation(self):
        t = parse_term("\\+ bad(X)")
        assert t.functor == "\\+"

    def test_cut(self):
        assert parse_term("!") == Atom("!")

    def test_anonymous_vars_distinct(self):
        t = parse_query("f(_, _)")[0]
        assert t.args[0] != t.args[1]

    def test_parenthesized_conjunction(self):
        t = parse_term("(a(X), b(X), c(X))")
        assert t.functor == ","
        assert t.args[1].functor == ","

    def test_trailing_junk_rejected(self):
        with pytest.raises(WLogSyntaxError):
            parse_term("f(X) g")


class TestRules:
    def test_fact(self):
        p = parse_program("edge(a, b).")
        assert len(p.rules) == 1
        assert p.rules[0].is_fact

    def test_rule_with_body(self):
        p = parse_program("anc(X, Y) :- parent(X, Z), anc(Z, Y).")
        assert len(p.rules[0].body) == 2

    def test_paper_cost_rule(self):
        src = (
            "cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T), "
            "configs(Tid,Vid,Con), C is T*Up*Con."
        )
        rule = parse_program(src).rules[0]
        assert rule.indicator == ("cost", 3)
        assert rule.body[-1].functor == "is"

    def test_missing_period_rejected(self):
        with pytest.raises(WLogSyntaxError):
            parse_program("f(a)")


class TestDirectives:
    def test_import(self):
        p = parse_program("import(amazonec2).")
        assert p.directives[0].kind == "import"
        assert p.directives[0].payload == "amazonec2"

    def test_enabled(self):
        p = parse_program("enabled(astar).")
        assert p.directives[0].payload == "astar"

    def test_goal_minimize(self):
        p = parse_program("goal minimize Ct in totalcost(Ct).")
        spec = p.directives[0].payload
        assert isinstance(spec, GoalSpec)
        assert spec.mode == "minimize"
        assert spec.objective == Var("Ct")
        assert spec.predicate.indicator == ("totalcost", 1)

    def test_goal_maximize(self):
        p = parse_program("goal maximize S in score(S).")
        assert p.directives[0].payload.mode == "maximize"

    def test_goal_requires_mode(self):
        with pytest.raises(WLogSyntaxError):
            parse_program("goal Ct in totalcost(Ct).")

    def test_cons_with_requirement(self):
        p = parse_program("cons T in maxtime(Path, T) satisfies deadline(95%, 10h).")
        spec = p.directives[0].payload
        assert isinstance(spec, ConsSpec)
        assert spec.variable == Var("T")
        assert spec.requirement_kind() == "deadline"
        assert spec.requirement.args == (Num(95.0), Num(36000.0))

    def test_cons_boolean(self):
        p = parse_program("cons admissible.")
        spec = p.directives[0].payload
        assert spec.variable is None
        assert spec.requirement is None

    def test_var_directive(self):
        p = parse_program("var configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).")
        spec = p.directives[0].payload
        assert isinstance(spec, VarSpec)
        assert spec.declaration.indicator == ("configs", 3)
        assert len(spec.domains) == 2

    def test_var_as_predicate_name_still_works(self):
        # A predicate literally called var/1 must not trigger the directive.
        p = parse_program("var(x).")
        assert len(p.rules) == 1
        assert not p.directives


class TestQueries:
    def test_conjunction(self):
        goals = parse_query("f(X), g(X), h(X)")
        assert len(goals) == 3

    def test_single(self):
        assert len(parse_query("f(X)")) == 1


class TestSyntaxErrorRendering:
    def test_error_carries_position_and_excerpt(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("f(a) g.\n")
        err = info.value
        assert (err.line, err.column) == (1, 6)
        assert err.base_message == "expected 'END', found 'g'"
        text = str(err)
        assert "(line 1, column 6)" in text
        assert "f(a) g." in text
        # The caret sits under the offending token.
        excerpt_lines = text.splitlines()
        assert excerpt_lines[-1].index("^") == excerpt_lines[-2].index("g")

    def test_error_on_later_line(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("f(a).\ng(X) :- , h(X).\n")
        err = info.value
        assert err.line == 2
        assert "g(X) :- , h(X)." in str(err)
        assert "^" in str(err)

    def test_lexer_error_renders_excerpt_too(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("f(a) @ g.\n")
        assert "^" in str(info.value)
        assert info.value.line == 1

    def test_base_message_is_unadorned(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("goal Ct in totalcost(Ct).")
        assert "line" not in info.value.base_message


class TestSpans:
    def test_rule_and_directive_spans(self):
        p = parse_program("f(a).\ngoal minimize C in total(C).\n")
        assert p.rules[0].span.line == 1
        assert p.rules[0].span.column == 1
        assert p.directives[0].span.line == 2

    def test_goal_term_spans(self):
        p = parse_program("f(X) :- g(X), X > 2.\n")
        body = p.rules[0].body
        assert body[0].span.line == 1
        assert body[0].span.column == 9
        assert body[1].span.column == 17  # the '>' token

    def test_spans_do_not_affect_equality(self):
        a = parse_term("f(X, atom)")
        b = Struct("f", (Var("X"), Atom("atom")))
        assert a == b
        assert hash(a.args[1]) == hash(b.args[1])


class TestEndOfInput:
    def test_expected_token_at_end_of_input(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("f(a")
        assert info.value.base_message == "expected ')', found end of input"
        assert (info.value.line, info.value.column) == (1, 4)

    def test_missing_clause_terminator_at_end_of_input(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program("f(a)")
        assert info.value.base_message == "expected 'END', found end of input"

    def test_missing_term_at_end_of_input(self):
        with pytest.raises(WLogSyntaxError) as info:
            parse_term("f(")
        assert info.value.base_message == "unexpected end of input"


class TestMalformedClauses:
    """A head that is not an atom or struct, or a ``var`` declaration that
    is not compound, is a syntax error at its first token."""

    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("f(a).\n  X :- foo.", "rule head must be an atom or struct, got X", (2, 3)),
            ("f(a).\n3.", "rule head must be an atom or struct, got 3", (2, 1)),
            ("var x forall t(T).", "var declaration must be compound, got x", (1, 5)),
        ],
    )
    def test_positioned_syntax_error(self, source, message, position):
        with pytest.raises(WLogSyntaxError) as info:
            parse_program(source)
        assert info.value.base_message == message
        assert (info.value.line, info.value.column) == position


class TestAnonymousVariables:
    SOURCE = "p(X) :- q(X, _), r(_, _).\ns(_) :- t(_)."

    def test_parse_is_a_function_of_the_text(self):
        assert parse_program(self.SOURCE).rules == parse_program(self.SOURCE).rules

    def test_numbered_in_order_of_appearance(self):
        rules = parse_program(self.SOURCE).rules
        names = [a.name for r in rules for g in (r.head, *r.body) for a in g.args
                 if isinstance(a, Var) and a.name != "X"]
        assert names == ["_#1", "_#2", "_#3", "_#4", "_#5"]

    def test_no_source_variable_spells_the_name(self):
        with pytest.raises(WLogSyntaxError):
            parse_term("f(_#1)")
