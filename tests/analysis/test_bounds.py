"""Tests for interval/bound inference (check_bounds and helpers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_semantics
from repro.analysis.bounds import (
    cost_interval,
    longest_path,
    makespan_interval,
    parent_index_tuples,
    support_bounds,
)
from repro.solver.backends import CompiledProblem
from repro.workflow.generators import ligo, pipeline

from tests.analysis.conftest import program_source


@pytest.fixture(scope="module")
def compiled(catalog):
    wf = ligo(num_tasks=40, seed=3)
    return CompiledProblem.compile(
        workflow=wf, catalog=catalog, deadline=1.0, percentile=96.0,
        num_samples=64, seed=3,
    )


class TestSupportBounds:
    def test_brackets_every_tensor_cell(self, compiled, catalog):
        """The sampling-free bounds hold for every Monte Carlo draw."""
        lo, hi = support_bounds(compiled.workflow, catalog)
        assert lo.shape == hi.shape == compiled.tensor.shape[:1] + compiled.tensor.shape[2:]
        cell_min = compiled.tensor.min(axis=1)
        cell_max = compiled.tensor.max(axis=1)
        assert np.all(lo <= cell_min + 1e-9)
        assert np.all(hi >= cell_max - 1e-9)

    def test_brackets_mean_times(self, compiled, catalog):
        lo, hi = support_bounds(compiled.workflow, catalog)
        assert np.all(lo <= compiled.mean_times + 1e-9)
        assert np.all(hi >= compiled.mean_times - 1e-9)


class TestLongestPath:
    def test_chain_is_sum(self):
        parents = ((), (0,), (1,))
        times = np.array([1.0, 2.0, 3.0])
        assert longest_path(parents, times) == pytest.approx(6.0)

    def test_diamond_takes_max_branch(self):
        parents = ((), (0,), (0,), (1, 2))
        times = np.array([1.0, 5.0, 2.0, 1.0])
        assert longest_path(parents, times) == pytest.approx(7.0)

    def test_empty(self):
        assert longest_path((), np.array([])) == 0.0


class TestMakespanInterval:
    def test_brackets_all_assignments(self, compiled, catalog):
        """mk interval holds the mean makespan of any type assignment."""
        lo, hi = support_bounds(compiled.workflow, catalog)
        parents = parent_index_tuples(compiled.workflow)
        mk = makespan_interval(parents, lo, hi)
        rng = np.random.default_rng(0)
        k, n = compiled.mean_times.shape
        for _ in range(20):
            a = rng.integers(0, k, size=n)
            mean_mk = longest_path(parents, compiled.mean_times[a, np.arange(n)])
            assert mk.lo <= mean_mk <= mk.hi

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), num_tasks=st.integers(2, 12))
    def test_chain_interval_brackets_analytic_mean(self, catalog, seed, num_tasks):
        """On a pure chain the makespan is the plain sum of task times,
        so the analytic mean makespan of *any* assignment must land in
        the interval -- the property the E401 proof rests on."""
        wf = pipeline(num_tasks=num_tasks, seed=seed)
        lo, hi = support_bounds(wf, catalog)
        parents = parent_index_tuples(wf)
        assert all(len(p) <= 1 for p in parents)  # really a chain
        mk = makespan_interval(parents, lo, hi)
        from repro.workflow.runtime_model import RuntimeModel

        mean = RuntimeModel(catalog).mean_matrix(wf)
        rng = np.random.default_rng(seed)
        k, n = mean.shape
        for _ in range(5):
            a = rng.integers(0, k, size=n)
            analytic_mean = float(mean[a, np.arange(n)].sum())
            assert mk.lo <= analytic_mean <= mk.hi


class TestCostInterval:
    def test_brackets_all_assignments(self, compiled):
        cost = cost_interval(compiled.mean_times, compiled.prices)
        rng = np.random.default_rng(1)
        k, n = compiled.mean_times.shape
        idx = np.arange(n)
        for _ in range(20):
            a = rng.integers(0, k, size=n)
            c = float(
                (compiled.mean_times[a, idx] * compiled.prices[a]).sum() / 3600.0
            )
            assert cost.lo - 1e-9 <= c <= cost.hi + 1e-9


class TestConstraintChecks:
    def test_budget_unreachable_is_e402(self, registry):
        source = program_source() + (
            "\ncons C2 in totalcost(C2) satisfies budget(95%, 0.0001).\n"
        )
        report = analyze_semantics(source, registry=registry)
        assert "E402" in [d.check for d in report.diagnostics if d.is_error]

    def test_budget_vacuous_is_w402(self, registry):
        source = program_source() + (
            "\ncons C2 in totalcost(C2) satisfies budget(95%, 100000.0).\n"
        )
        report = analyze_semantics(source, registry=registry)
        assert "W402" in [d.check for d in report.diagnostics if not d.is_error]

    def test_reliability_unreachable_is_e403(self, registry):
        # Rate 0.9, zero retries: P(all ~25 tasks succeed) ~ 0.1**25,
        # hopeless against the demanded 99%.
        source = program_source() + (
            "\nfault_model(0.9, 36000.0)."
            "\ncons P in successprob(P) satisfies reliability(99%, 0).\n"
        )
        report = analyze_semantics(source, registry=registry)
        assert "E403" in [d.check for d in report.diagnostics if d.is_error]

    def test_reliable_fault_model_is_clean(self, registry):
        source = program_source() + (
            "\nfault_model(0.01, 36000.0)."
            "\ncons P in successprob(P) satisfies reliability(50%, 3).\n"
        )
        report = analyze_semantics(source, registry=registry)
        assert "E403" not in [d.check for d in report.diagnostics]
