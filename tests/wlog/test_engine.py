"""Tests for SLD resolution (the WLog interpreter core)."""

import pytest

from repro.common.errors import WLogRuntimeError
from repro.wlog.engine import Database, Engine
from repro.wlog.parser import parse_program
from repro.wlog.terms import Atom, Num, Rule, Struct, from_python


def engine_from(src: str) -> Engine:
    return Engine(Database(parse_program(src).rules))


def fact(functor: str, *args) -> Rule:
    """``functor(args...)`` with Python values lifted."""
    return Rule(Struct(functor, tuple(from_python(a) for a in args)))


FAMILY = """
parent(a, b).  parent(a, c).  parent(b, d).  parent(c, e).
anc(X, Y) :- parent(X, Y).
anc(X, Y) :- parent(X, Z), anc(Z, Y).
sibling(X, Y) :- parent(P, X), parent(P, Y), X \\== Y.
"""


class TestResolution:
    def test_facts(self):
        e = engine_from(FAMILY)
        assert e.ask("parent(a, b)")
        assert not e.ask("parent(b, a)")

    def test_variable_answers(self):
        e = engine_from(FAMILY)
        children = sorted(str(s["X"]) for s in e.query("parent(a, X)"))
        assert children == ["b", "c"]

    def test_recursion(self):
        e = engine_from(FAMILY)
        descendants = sorted(str(s["Y"]) for s in e.query("anc(a, Y)"))
        assert descendants == ["b", "c", "d", "e"]

    def test_conjunction(self):
        e = engine_from(FAMILY)
        sols = list(e.query("parent(a, X), parent(X, Y)"))
        assert {(str(s["X"]), str(s["Y"])) for s in sols} == {("b", "d"), ("c", "e")}

    def test_joins_with_inequality(self):
        e = engine_from(FAMILY)
        sibs = {(str(s["X"]), str(s["Y"])) for s in e.query("sibling(X, Y)")}
        assert sibs == {("b", "c"), ("c", "b")}

    def test_first_and_all_values(self):
        e = engine_from(FAMILY)
        assert e.first("parent(zz, X)") is None
        assert len([sol["X"] for sol in e.query("parent(a, X)")]) == 2

    def test_unknown_predicate_raises(self):
        e = engine_from(FAMILY)
        with pytest.raises(WLogRuntimeError):
            e.ask("grandparent(a, X)")

    def test_ground_query_no_bindings(self):
        e = engine_from(FAMILY)
        sols = list(e.query("parent(a, b)"))
        assert sols == [{}]


class TestCut:
    def test_cut_commits_to_first_solution(self):
        e = engine_from(FAMILY + "first(X, Y) :- parent(X, Y), !.")
        assert [str(s["Y"]) for s in e.query("first(a, Y)")] == ["b"]

    def test_cut_local_to_clause(self):
        src = FAMILY + """
pick(X) :- parent(a, X), !.
pick(zzz).
"""
        e = engine_from(src)
        # Cut prunes the second pick/1 clause too (clause alternatives).
        assert [str(s["X"]) for s in e.query("pick(X)")] == ["b"]

    def test_cut_does_not_leak_upward(self):
        src = FAMILY + """
inner(X) :- parent(a, X), !.
outer(X, Y) :- parent(a, X), inner(Y).
"""
        e = engine_from(src)
        # The cut inside inner/1 must not prune outer's choices for X.
        xs = sorted({str(s["X"]) for s in e.query("outer(X, Y)")})
        assert xs == ["b", "c"]


class TestRenaming:
    def test_clause_variables_fresh_per_activation(self):
        src = "double(X, Y) :- Y is X + X.\nquad(X, Z) :- double(X, Y), double(Y, Z)."
        e = engine_from(src)
        assert e.first("quad(3, Z)")["Z"] == Num(12.0)

    def test_depth_limit(self):
        e = engine_from("loop(X) :- loop(X).")
        e.max_depth = 50
        with pytest.raises(WLogRuntimeError):
            e.ask("loop(1)")


class TestDatabase:
    def test_add_fact_lifts_python_values(self):
        db = Database()
        db.add(fact("price", "vm0", 0.044))
        e = Engine(db)
        assert e.first("price(vm0, P)")["P"] == Num(0.044)

    def test_first_argument_indexing(self):
        db = Database()
        for i in range(100):
            db.add(fact("exetime", f"t{i}", "vm0", float(i)))
        clauses = db.clauses(("exetime", 3), Atom("t5"))
        assert len(clauses) == 1

    def test_index_falls_back_for_rules(self):
        src = "p(a).\np(X) :- q(X).\nq(b)."
        db = Database(parse_program(src).rules)
        assert len(db.clauses(("p", 1), Atom("a"))) == 2  # no index: mixed predicate

    def test_clone_isolated(self):
        db = Database()
        db.add(fact("f", "a"))
        clone = db.clone()
        clone.add(fact("f", "b"))
        assert len(db.clauses(("f", 1))) == 1
        assert len(clone.clauses(("f", 1))) == 2

    def test_index_invalidated_on_add(self):
        db = Database()
        db.add(fact("f", "a", 1.0))
        db.clauses(("f", 2), Atom("a"))  # build index
        db.add(fact("f", "a", 2.0))
        assert len(db.clauses(("f", 2), Atom("a"))) == 2


class TestCallOnTerms:
    def test_query_accepts_parsed_terms(self):
        from repro.wlog.parser import parse_query

        e = engine_from(FAMILY)
        goals = parse_query("parent(a, X)")
        assert len(list(e.query(goals))) == 2

    def test_calling_number_raises(self):
        e = engine_from(FAMILY)
        with pytest.raises(WLogRuntimeError):
            list(e.query([Num(1.0)]))
