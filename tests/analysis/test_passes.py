"""Tests for analyze_semantics and its AnalysisContext."""

from __future__ import annotations

import time

from repro.analysis import analyze_semantics, makespan_interval, support_bounds
from repro.analysis.passes import AnalysisContext
from repro.wlog.program import WLogProgram

from tests.analysis.conftest import program_source


class TestAnalysisContext:
    def test_emit_defaults_severity_from_catalog(self):
        ctx = AnalysisContext(program=WLogProgram.from_source("goal minimize C in c(C)."))
        ctx.emit("E401", "boom")
        ctx.emit("W404", "meh")
        assert [d.severity for d in ctx.diagnostics] == ["error", "warning"]


class TestAnalyzeSemantics:
    def test_clean_program_has_facts_and_no_findings(self, registry, catalog, small_workflow):
        report = analyze_semantics(program_source(), registry=registry)
        assert report.diagnostics == ()
        # The deadline sits strictly inside the makespan interval the
        # bounds helpers derive, so neither E401 nor W401 fires.
        lo, hi = support_bounds(small_workflow, catalog, registry.runtime_model_for(catalog))
        mk = makespan_interval(small_workflow, lo, hi)
        assert mk.lo < 36_000.0 < mk.hi

    def test_infeasible_deadline_is_e401(self, registry):
        report = analyze_semantics(program_source(deadline_seconds=5.0), registry=registry)
        errors = [d for d in report.diagnostics if d.is_error]
        assert [d.check for d in errors] == ["E401"]
        assert "provably unreachable" in errors[0].message
        assert errors[0].span is not None  # anchored at the cons directive

    def test_vacuous_deadline_is_w401(self, registry):
        report = analyze_semantics(program_source(deadline_seconds=1e12), registry=registry)
        assert [d.check for d in report.diagnostics if not d.is_error] == ["W401"]

    def test_no_registry_still_runs_syntax_level_passes(self):
        # Without a registry nothing semantic can be bounded, but the
        # dead-code family still runs and the driver does not crash.
        report = analyze_semantics(program_source())
        assert report.diagnostics == ()
        report = analyze_semantics(program_source() + "\nc(1.0) :- 2 < 1.\n")
        assert [d.check for d in report.diagnostics] == ["W404"]

    def test_gate_budget_under_50ms(self, registry):
        source = program_source(deadline_seconds=5.0)
        analyze_semantics(source, registry=registry)  # warm imports
        t0 = time.perf_counter()
        report = analyze_semantics(source, registry=registry)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert [d for d in report.diagnostics if d.is_error]
        assert elapsed_ms < 50.0, f"semantic gate took {elapsed_ms:.1f} ms"

    def test_checks_run_once_in_order(self, monkeypatch, registry):
        import repro.analysis.passes as passes

        calls = []
        for name in ("check_constant_conditions", "check_dead_rules",
                     "check_shadowed_facts", "check_bounds"):
            original = getattr(passes, name)

            def counting(ctx, _name=name, _original=original):
                calls.append(_name)
                _original(ctx)

            monkeypatch.setattr(passes, name, counting)
        analyze_semantics(program_source(), registry=registry)
        assert calls == ["check_constant_conditions", "check_dead_rules",
                         "check_shadowed_facts", "check_bounds"]
