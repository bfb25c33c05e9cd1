"""Tests for the WLog static analyzer (repro.wlog.analysis)."""

import pytest

from repro.common.errors import WLogAnalysisError
from repro.wlog.analysis import analyze_program, check_program, pragma_assumes
from repro.wlog.diagnostics import CHECKS, Diagnostic, Span, render_diagnostic
from repro.wlog.library import (
    ENSEMBLE_DRIVER_FACTS,
    FOLLOWCOST_DRIVER_FACTS,
    bundled_programs,
    ensemble_program,
    followcost_program,
)
from repro.wlog.parser import parse_program
from repro.wlog.program import WLogProgram

from .pretty import format_program


def checks_of(diags):
    return [d.check for d in diags]


def find(diags, check):
    matches = [d for d in diags if d.check == check]
    assert matches, f"expected a {check} diagnostic, got {checks_of(diags)}"
    return matches[0]


#: A minimal clean scaffold the per-check tests build on.
CLEAN = """
goal minimize C in total(C).
var x(A, Con) forall item(A).
total(C) :- findall(V, value(_A, V), Bag), sum(Bag, C).
value(A, V) :- item(A), weight(A, V).
/* lint: assume item/1, weight/2 */
"""


class TestCleanProgram:
    def test_scaffold_is_clean(self):
        assert analyze_program(CLEAN) == []

    def test_all_bundled_templates_lint_clean(self):
        """Golden assertion: every bundled library template is clean."""
        for name, (source, extra) in bundled_programs().items():
            diags = analyze_program(source, extra_predicates=extra)
            assert diags == [], f"{name}: {[str(d) for d in diags]}"

    def test_driver_fact_constants_are_necessary(self):
        # Without the declared driver facts the templates must NOT be
        # clean -- guards against the constants rotting into no-ops.
        assert any(
            d.check == "E201"
            for d in analyze_program(ensemble_program(budget=10.0))
        )
        assert any(
            d.check == "E201"
            for d in analyze_program(followcost_program(3600.0))
        )
        assert ("wscore", 2) in ENSEMBLE_DRIVER_FACTS
        assert ("wruntime", 3) in FOLLOWCOST_DRIVER_FACTS


class TestUndefinedPredicate:
    def test_typo_in_body_flagged_with_position(self):
        src = CLEAN.replace("weight(A, V)", "wieght(A, V)")
        diag = find(analyze_program(src), "E201")
        assert "wieght/2" in diag.message
        assert "did you mean weight" in diag.message
        assert diag.span is not None and diag.span.line == 5

    def test_typo_in_goal_directive_flagged(self):
        src = CLEAN.replace("goal minimize C in total(C).", "goal minimize C in totl(C).")
        diag = find(analyze_program(src), "E201")
        assert "totl/1" in diag.message

    def test_arity_mismatch_reported_separately(self):
        src = CLEAN.replace("weight(A, V)", "weight(A, V, extra)")
        diags = analyze_program(src)
        diag = find(diags, "E202")
        assert "weight/3" in diag.message and "weight/2" in diag.message
        assert "E201" not in checks_of(diags)

    def test_builtin_wrong_arity_is_arity_mismatch(self):
        src = CLEAN.replace("sum(Bag, C)", "sum(Bag, C, extra)")
        diag = find(analyze_program(src), "E202")
        assert "sum/3" in diag.message

    def test_negated_and_meta_goals_are_walked(self):
        src = CLEAN + "extra :- \\+ missing(_X).\n" + "goalless :- findall(X, absent(X), _L).\n"
        diags = analyze_program(src)
        messages = " ".join(d.message for d in diags if d.check == "E201")
        assert "missing/1" in messages
        assert "absent/1" in messages

    def test_import_facts_assumed_without_registry(self):
        src = """
import(amazonec2).
import(montage).
goal minimize C in total(C).
var x(T, V, Con) forall task(T) and vm(V).
total(C) :- findall(X, tc(_T, X), B), sum(B, C).
tc(T, C) :- task(T), exetime(T, _V, C).
"""
        assert analyze_program(src) == []

    def test_registry_narrows_import_facts(self):
        from repro.cloud import ec2_catalog
        from repro.wlog.imports import ImportRegistry

        registry = ImportRegistry()
        registry.register_cloud("amazonec2", ec2_catalog())
        # Only a cloud is imported: task/1 and exetime/3 are not
        # materialized, so calls to them must be flagged.
        src = """
import(amazonec2).
goal minimize C in total(C).
var x(T, V, Con) forall task(T) and vm(V).
total(C) :- findall(X, tc(_T, X), B), sum(B, C).
tc(T, C) :- task(T), exetime(T, _V, C).
"""
        diags = analyze_program(src, registry=registry)
        flagged = {d.message.split()[2] for d in diags if d.check == "E201"}
        assert "task/1" in flagged and "exetime/3" in flagged


class TestDirectiveSignatures:
    def test_wrong_arity_deadline(self):
        src = CLEAN.replace(
            "goal minimize C in total(C).",
            "goal minimize C in total(C).\ncons T in total(T) satisfies deadline(95%).",
        )
        diag = find(analyze_program(src), "E203")
        assert "deadline/1" in diag.message
        assert diag.span is not None and diag.span.line == 3

    def test_percentile_out_of_domain(self):
        src = CLEAN + "cons T in total(T) satisfies deadline(120.0, 10h).\n"
        assert "E203" in checks_of(analyze_program(src))

    def test_fractional_percentile_warns(self):
        src = CLEAN + "cons T in total(T) satisfies deadline(0.95, 10h).\n"
        diag = find(analyze_program(src), "W306")
        assert "95" in diag.message

    def test_negative_budget(self):
        src = CLEAN + "cons C2 in total(C2) satisfies budget(95%, -5.0).\n"
        diag = find(analyze_program(src), "E203")
        assert "budget" in diag.message

    def test_unknown_requirement_functor(self):
        src = CLEAN + "cons T in total(T) satisfies speedlimit(95%, 10h).\n"
        diag = find(analyze_program(src), "E203")
        assert "speedlimit" in diag.message

    def test_unknown_hint_warns_with_suggestion(self):
        src = CLEAN + "enabled(astr).\n"
        diag = find(analyze_program(src), "W302")
        assert "did you mean astar" in diag.message

    def test_duplicate_goal_directive(self):
        src = CLEAN + "goal minimize D in total(D).\n"
        assert "E208" in checks_of(analyze_program(src))

    def test_detached_goal_objective(self):
        src = CLEAN.replace("goal minimize C in total(C).", "goal minimize D in total(C).")
        diag = find(analyze_program(src), "E209")
        assert "D" in diag.message

    def test_unknown_import_with_registry(self):
        from repro.wlog.imports import ImportRegistry

        src = "import(amazon).\n" + CLEAN
        diag = find(analyze_program(src, registry=ImportRegistry()), "E210")
        assert "amazon" in diag.message

    def test_misspelled_directive_fact(self):
        src = CLEAN + "enabeld(astar).\n"
        diag = find(analyze_program(src), "W307")
        assert "enabled" in diag.message


class TestVariableChecks:
    def test_singleton_flagged(self):
        src = CLEAN.replace("item(A), weight(A, V)", "item(A), weight(A, V), item(Lonely)")
        diag = find(analyze_program(src), "W301")
        assert "Lonely" in diag.message
        assert diag.span is not None and diag.span.line == 5

    def test_underscore_prefix_suppresses_singleton(self):
        src = CLEAN.replace("item(A), weight(A, V)", "item(A), weight(A, V), item(_Lonely)")
        assert analyze_program(src) == []

    def test_unbound_arithmetic(self):
        src = CLEAN + "bad(C) :- C is T + 1.\n/* lint: assume bad/1 */\n"
        diags = analyze_program(src)
        diag = find(diags, "E205")
        assert "T" in diag.message and "is/2" in diag.message

    def test_unbound_comparison(self):
        src = CLEAN.replace("item(A), weight(A, V)", "T > 3, item(A), weight(A, V)")
        assert "E205" in checks_of(analyze_program(src))

    def test_bound_after_call_is_clean(self):
        src = CLEAN.replace(
            "value(A, V) :- item(A), weight(A, V).",
            "value(A, V) :- item(A), weight(A, W), V is W * 2.",
        )
        assert analyze_program(src) == []

    def test_findall_result_becomes_bound(self):
        # Bag flows out of findall into sum/2: no E205 in the scaffold.
        assert analyze_program(CLEAN) == []


class TestNegation:
    def test_free_var_under_negation(self):
        src = CLEAN + "ok :- \\+ value(W, _V).\n/* lint: assume ok/0 */\n"
        diag = find(analyze_program(src), "E206")
        assert "W" in diag.message

    def test_bound_var_under_negation_is_clean(self):
        src = CLEAN + "ok(A) :- item(A), \\+ value(A, _V).\n/* lint: assume ok/1 */\n"
        assert "E206" not in checks_of(analyze_program(src))

    def test_negation_cycle_not_stratified(self):
        src = CLEAN + "p(X) :- item(X), \\+ q(X).\nq(X) :- item(X), \\+ p(X).\n"
        diags = analyze_program(src)
        diag = find(diags, "E207")
        assert "negation" in diag.message

    def test_self_negation(self):
        src = CLEAN + "p :- \\+ p.\n/* lint: assume p/0 */\n"
        assert "E207" in checks_of(analyze_program(src))

    def test_stratified_negation_is_clean(self):
        # The ensemble template's admissible/bad_admission chain is the
        # canonical stratified use; already covered by the golden test,
        # but assert the check specifically here.
        diags = analyze_program(
            ensemble_program(budget=10.0), extra_predicates=ENSEMBLE_DRIVER_FACTS
        )
        assert "E207" not in checks_of(diags)


class TestRuleHygiene:
    def test_duplicate_rule_up_to_renaming(self):
        src = CLEAN + "value(B, W) :- item(B), weight(B, W).\n"
        diag = find(analyze_program(src), "W303")
        assert "value/2" in diag.message
        assert "line 5" in diag.message  # points back at the original

    def test_unreachable_rule(self):
        src = CLEAN + "orphan(X) :- item(X).\n"
        diag = find(analyze_program(src), "W304")
        assert "orphan/1" in diag.message

    def test_astar_score_rules_are_roots(self):
        src = CLEAN + "enabled(astar).\ncal_g_score(C) :- total(C).\nest_h_score(C) :- total(C).\n"
        assert "W304" not in checks_of(analyze_program(src))

    def test_no_goal_no_reachability_check(self):
        src = "f(a).\ng(X) :- f(X).\n"
        assert "W304" not in checks_of(analyze_program(src))

    def test_builtin_shadow(self):
        src = CLEAN + "sum(_A, _B) :- true.\n"
        diag = find(analyze_program(src), "W305")
        assert "sum/2" in diag.message


class TestCheckProgram:
    def test_errors_raise_with_diagnostics(self):
        src = CLEAN.replace("weight(A, V)", "wieght(A, V)")
        with pytest.raises(WLogAnalysisError) as info:
            check_program(src)
        assert info.value.diagnostics
        assert info.value.diagnostics[0].check == "E201"
        assert "wieght" in str(info.value)
        assert "^" in str(info.value)  # caret excerpt in the message

    def test_warnings_pass_and_are_returned(self):
        src = CLEAN + "orphan(X) :- item(X).\n"
        returned = check_program(src)
        assert checks_of(returned) == ["W304"]

    def test_clean_program_returns_empty(self):
        assert check_program(CLEAN) == []


class TestInputsAndRendering:
    def test_accepts_parsed_and_wlog_program(self):
        from repro.wlog.program import WLogProgram

        parsed = parse_program(CLEAN)
        assert analyze_program(parsed) == []
        assert analyze_program(WLogProgram.from_source(CLEAN)) == []

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            analyze_program(42)

    def test_pragma_parsing(self):
        assumes = pragma_assumes(
            "/* lint: assume a/1, b/2 */ x. /* lint: assume c/0,\n   d/3 */"
        )
        assert assumes == {("a", 1), ("b", 2), ("c", 0), ("d", 3)}

    def test_render_includes_caret(self):
        diag = Diagnostic("E201", "error", "boom", span=Span(1, 5, 1, 8))
        text = render_diagnostic(diag, "hello world", "f.wlog")
        assert text.splitlines()[0].startswith("f.wlog:1:5: error[E201")
        assert text.splitlines()[-1].strip() == "^^^"

    def test_every_check_is_cataloged(self):
        for check, (name, severity, description) in CHECKS.items():
            assert check[0] in ("E", "W")
            assert (severity == "error") == (check[0] == "E")
            assert name and description

    def test_diagnostics_sorted_by_position(self):
        src = CLEAN + "orphan(X) :- item(X).\np :- \\+ p.\n/* lint: assume p/0 */\n"
        diags = analyze_program(src)
        positions = [(d.span.line, d.span.column) for d in diags if d.span]
        assert positions == sorted(positions)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(bundled_programs()))
    def test_format_parse_relint_fixpoint(self, name):
        """Pretty-printing must not change what the analyzer sees."""
        source, extra = bundled_programs()[name]
        original = analyze_program(source, extra_predicates=extra)
        formatted = format_program(WLogProgram.from_source(source))
        reparsed = analyze_program(
            formatted, extra_predicates=set(extra) | pragma_assumes(source)
        )
        strip = lambda ds: [(d.check, d.message) for d in ds]  # noqa: E731
        assert strip(reparsed) == strip(original)

    def test_round_trip_preserves_findings(self):
        src = (
            "goal minimize C in total(C).\n"
            "var x(A, Con) forall item(A).\n"
            "total(C) :- item(C), item(Lonely).\n"
            "/* lint: assume item/1 */\n"
        )
        original = [(d.check, d.message) for d in analyze_program(src)]
        formatted = format_program(WLogProgram.from_source(src))
        redone = [
            (d.check, d.message)
            for d in analyze_program(formatted, extra_predicates={("item", 1)})
        ]
        assert original == redone
        assert ("W301", "singleton variable Lonely (use _Lonely if intentional)") in redone
