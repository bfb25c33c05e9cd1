"""Tests for the built-in predicates."""

import pytest

from repro.common.errors import WLogRuntimeError
from repro.wlog.engine import Database, Engine
from repro.wlog.parser import parse_program
from repro.wlog.terms import Num


def engine_from(src: str = "") -> Engine:
    return Engine(Database(parse_program(src).rules if src else []))


class TestArithmetic:
    def test_is_evaluates(self):
        e = engine_from()
        assert e.first("X is 2 * 3 + 4")["X"] == Num(10.0)

    def test_is_checks_when_bound(self):
        e = engine_from()
        assert e.ask("6 is 2 * 3")
        assert not e.ask("7 is 2 * 3")

    def test_division_by_zero(self):
        e = engine_from()
        with pytest.raises(WLogRuntimeError):
            e.ask("X is 1 / 0")

    def test_unbound_arithmetic_raises(self):
        e = engine_from()
        with pytest.raises(WLogRuntimeError):
            e.ask("X is Y + 1")

    @pytest.mark.parametrize(
        "expr", ["pow(0 - 8, 0.5)", "sqrt(0 - 1)", "log(0)", "mod(1, 0)", "exp(1000)"]
    )
    def test_undefined_or_non_real_result_raises(self, expr):
        with pytest.raises(WLogRuntimeError):
            engine_from().ask(f"X is {expr}")

    @pytest.mark.parametrize(
        "query,expected",
        [("1 < 2", True), ("2 < 1", False), ("2 =< 2", True), ("3 >= 4", False),
         ("1 =:= 1.0", True), ("1 =\\= 2", True)],
    )
    def test_comparisons(self, query, expected):
        assert engine_from().ask(query) is expected

    def test_nested_expression_comparison(self):
        assert engine_from().ask("2 * 3 > 5")


class TestUnificationBuiltins:
    def test_explicit_unify(self):
        e = engine_from()
        assert e.first("X = f(1)")["X"].indicator == ("f", 1)

    def test_structural_equality(self):
        e = engine_from()
        assert e.ask("f(1) == f(1)")
        assert not e.ask("f(1) == f(2)")
        assert e.ask("f(1) \\== f(2)")

    def test_numeric_equality_by_value(self):
        # The paper writes Con == 1 where Con is bound to a float.
        e = engine_from("config(1.0).")
        assert e.ask("config(C), C == 1")


class TestNegation:
    def test_naf(self):
        e = engine_from("p(a).")
        assert e.ask("\\+ p(b)")
        assert not e.ask("\\+ p(a)")

    def test_naf_does_not_bind(self):
        e = engine_from("p(a).")
        sol = e.first("\\+ p(b), X = ok")
        assert str(sol["X"]) == "ok"


class TestAggregates:
    SRC = """
item(apple, 3).
item(pear, 5).
item(plum, 2).
"""

    def test_findall(self):
        e = engine_from(self.SRC)
        bag = e.first("findall(N, item(F, N), L)")["L"]
        assert repr(bag) == "[3, 5, 2]"

    def test_findall_empty_gives_nil(self):
        e = engine_from(self.SRC)
        assert repr(e.first("findall(N, item(zz, N), L)")["L"]) == "[]"

    def test_setof_sorted_unique(self):
        e = engine_from(self.SRC + "item(apple2, 3).")
        out = e.first("setof(N, item(F, N), L)")["L"]
        assert repr(out) == "[2, 3, 5]"

    def test_setof_fails_when_empty(self):
        e = engine_from(self.SRC)
        assert not e.ask("setof(N, item(zz, N), L)")

    def test_bagof_fails_when_empty(self):
        e = engine_from(self.SRC)
        assert not e.ask("bagof(N, item(zz, N), L)")

    def test_sum(self):
        e = engine_from(self.SRC)
        assert e.first("findall(N, item(F, N), L), sum(L, S)")["S"] == Num(10.0)

    def test_sum_empty_is_zero(self):
        e = engine_from()
        assert e.first("sum([], S)")["S"] == Num(0.0)

    def test_max_numeric(self):
        e = engine_from()
        assert e.first("max([3, 9, 4], M)")["M"] == Num(9.0)

    def test_min_numeric(self):
        e = engine_from()
        assert e.first("min([3, 9, 4], M)")["M"] == Num(3.0)

    def test_max_pairs_by_last_element(self):
        """The paper's r3: max over [Path, Time] pairs picks the longest."""
        e = engine_from()
        sol = e.first("max([[a, 3], [b, 9], [c, 4]], M)")
        assert repr(sol["M"]) == "[b, 9]"

    def test_max_empty_fails(self):
        assert not engine_from().ask("max([], M)")

    def test_findall_with_conjunction_goal(self):
        e = engine_from(self.SRC)
        out = e.first("findall(N, (item(F, N), N > 2), L)")["L"]
        assert repr(out) == "[3, 5]"


class TestLists:
    def test_member_enumerates(self):
        e = engine_from()
        assert [str(s["X"]) for s in e.query("member(X, [a, b, c])")] == ["a", "b", "c"]

    def test_member_checks(self):
        e = engine_from()
        assert e.ask("member(b, [a, b])")
        assert not e.ask("member(z, [a, b])")

    def test_length(self):
        e = engine_from()
        assert e.first("length([a, b, c], N)")["N"] == Num(3.0)

    def test_length_generative(self):
        e = engine_from()
        lst = e.first("length(L, 2)")["L"]
        from repro.wlog.terms import list_items

        assert len(list_items(lst)) == 2

    def test_append_forward(self):
        e = engine_from()
        assert repr(e.first("append([1, 2], [3], L)")["L"]) == "[1, 2, 3]"

    def test_append_splits(self):
        e = engine_from()
        splits = list(e.query("append(A, B, [1, 2])"))
        assert len(splits) == 3

    def test_nth0(self):
        e = engine_from()
        assert str(e.first("nth0(1, [a, b, c], X)")["X"]) == "b"

    def test_msort(self):
        e = engine_from()
        assert repr(e.first("msort([3, 1, 2], L)")["L"]) == "[1, 2, 3]"

    def test_between(self):
        e = engine_from()
        values = [s["X"] for s in e.query("between(1, 4, X)")]
        assert [v.value for v in values] == [1, 2, 3, 4]


class TestControl:
    def test_true_fail(self):
        e = engine_from()
        assert e.ask("true")
        assert not e.ask("fail")

    def test_call(self):
        e = engine_from("p(a).")
        assert e.ask("X = p(a), call(X)")

    def test_call_unbound_raises(self):
        with pytest.raises(WLogRuntimeError):
            engine_from().ask("call(X)")

    def test_write_captures_output(self):
        e = engine_from()
        e.ask("write(hello), nl")
        assert e.output == ["hello", "\n"]


class TestExtendedListBuiltins:
    def test_reverse(self):
        e = engine_from()
        assert repr(e.first("reverse([1, 2, 3], L)")["L"]) == "[3, 2, 1]"

    def test_reverse_empty(self):
        e = engine_from()
        assert repr(e.first("reverse([], L)")["L"]) == "[]"

    def test_last(self):
        e = engine_from()
        assert str(e.first("last([a, b, c], X)")["X"]) == "c"

    def test_last_empty_fails(self):
        assert not engine_from().ask("last([], X)")

    def test_nth1(self):
        e = engine_from()
        assert str(e.first("nth1(1, [a, b], X)")["X"]) == "a"
        assert str(e.first("nth1(2, [a, b], X)")["X"]) == "b"

    def test_nth1_enumerates(self):
        e = engine_from()
        pairs = [(s["I"].value, str(s["X"])) for s in e.query("nth1(I, [a, b], X)")]
        assert pairs == [(1, "a"), (2, "b")]

    def test_forall_holds(self):
        e = engine_from("p(1). p(2). q(1). q(2).")
        assert e.ask("forall(p(X), q(X))")

    def test_forall_fails_on_counterexample(self):
        e = engine_from("p(1). p(2). q(1).")
        assert not e.ask("forall(p(X), q(X))")

    def test_forall_vacuous(self):
        e = engine_from("q(1).")
        assert e.ask("forall(fail, q(9))")
