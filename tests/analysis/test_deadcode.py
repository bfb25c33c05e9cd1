"""Tests for constant folding and the W403-W405 checks."""

from __future__ import annotations

from repro.analysis import analyze_semantics
from repro.analysis.deadcode import _is_foldable_is, fold_comparison, fold_term
from repro.wlog.terms import Num, Struct, Var


def struct(functor, *args):
    return Struct(functor, tuple(args))


class TestFoldTerm:
    def test_number_literal(self):
        assert fold_term(Num(3.5)) == 3.5

    def test_binary_arithmetic(self):
        assert fold_term(struct("+", Num(1), struct("*", Num(2), Num(3)))) == 7.0

    def test_unary_minus(self):
        assert fold_term(struct("-", Num(4))) == -4.0

    def test_variable_is_not_foldable(self):
        assert fold_term(Var("X")) is None
        assert fold_term(struct("+", Num(1), Var("X"))) is None

    def test_division_by_zero_is_not_foldable(self):
        assert fold_term(struct("/", Num(1), Num(0))) is None

    def test_non_real_and_undefined_results_are_not_foldable(self):
        minus_eight = struct("-", Num(0), Num(8))
        assert fold_term(struct("pow", minus_eight, Num(0.5))) is None
        assert fold_term(struct("sqrt", Num(-1))) is None
        assert fold_term(struct("mod", Num(1), Num(0))) is None
        assert fold_comparison(struct("<", Num(1), struct("pow", minus_eight, Num(0.5)))) is None


class TestFoldComparison:
    def test_true_and_false(self):
        assert fold_comparison(struct("<", Num(3), Num(4))) is True
        assert fold_comparison(struct(">", Num(3), Num(4))) is False
        assert fold_comparison(struct(">=", Num(4), Num(4))) is True

    def test_non_comparison_undecidable(self):
        assert fold_comparison(struct("foo", Num(1), Num(2))) is None
        assert fold_comparison(Num(1)) is None

    def test_unbound_operand_undecidable(self):
        assert fold_comparison(struct("<", Var("X"), Num(4))) is None

    def test_foldable_is(self):
        assert _is_foldable_is(struct("is", Var("X"), struct("+", Num(1), Num(2))))
        assert not _is_foldable_is(struct("is", Var("X"), struct("+", Var("Y"), Num(2))))


class TestDiagnostics:
    def test_constant_condition_is_w403(self):
        report = analyze_semantics(
            "goal minimize C in c(C).\nc(X) :- X is 1 + 2, 1 < 2."
        )
        checks = [d.check for d in report.diagnostics]
        assert checks.count("W403") == 2  # the comparison and the ground `is`

    def test_dead_rule_is_w404(self):
        report = analyze_semantics(
            "goal minimize C in c(C).\nc(1.0) :- 2 < 1.\nc(2.0)."
        )
        assert "W404" in [d.check for d in report.diagnostics]

    def test_dead_rule_not_double_reported_as_w403(self):
        # A dead rule's other decidable literals belong to W404 alone.
        report = analyze_semantics(
            "goal minimize C in c(C).\nc(1.0) :- 1 < 2, 2 < 1.\nc(2.0)."
        )
        checks = [d.check for d in report.diagnostics]
        assert "W404" in checks and "W403" not in checks

    def test_pragma_shadowed_fact_is_w405(self):
        source = (
            "/* lint: assume score/1 */\n"
            "goal minimize C in c(C).\n"
            "c(C) :- score(C).\n"
            "score(1.0).\n"
        )
        report = analyze_semantics(source)
        w405 = [d for d in report.diagnostics if d.check == "W405"]
        assert len(w405) == 1
        assert "score/1" in w405[0].message

    def test_no_pragma_no_w405(self):
        report = analyze_semantics(
            "goal minimize C in c(C).\nc(C) :- score(C).\nscore(1.0)."
        )
        assert "W405" not in [d.check for d in report.diagnostics]
