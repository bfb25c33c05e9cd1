"""Tests for the probabilistic IR and Monte Carlo evaluation (Algorithm 1)."""

import pytest

from repro.common.errors import WLogError
from repro.distributions import histogram as histogram_module
from repro.distributions.histogram import Histogram
from repro.engine.compiler import compile_or_raise
from repro.wlog.imports import ImportRegistry, vm_atom
from repro.wlog.library import scheduling_program
from repro.wlog.probir import translate
from repro.wlog.program import WLogProgram
from repro.wlog.terms import Atom, Num, Rule, Struct
from repro.workflow.generators import montage, pipeline


@pytest.fixture()
def setup(catalog):
    wf = pipeline(num_tasks=3, runtime=600.0, data_mb=2000.0, seed=1)
    reg = ImportRegistry()
    reg.register_cloud("amazonec2", catalog)
    reg.register_workflow("montage", wf)
    return wf, reg


def configs_rules(wf, type_name):
    return tuple(
        Rule(Struct("configs", (Atom(tid), vm_atom(type_name), Num(1.0))))
        for tid in wf.task_ids
    )


class TestTranslate:
    def test_prob_facts_generated(self, setup, catalog):
        wf, reg = setup
        ir = translate(WLogProgram.from_source(scheduling_program()), reg)
        assert len(ir.prob_facts) == len(wf) * len(catalog)

    def test_histograms_are_built_only_for_the_path_that_reads_them(self, catalog, monkeypatch):
        """Translation cost follows what is read (a call count, no wall
        clock): the compiled path reads no ``exetime`` histogram; the
        interpreter then discretizes each distinct catalog bandwidth
        distribution at most once."""
        calls = []
        original = Histogram.from_distribution.__func__

        def counting(cls, dist, *args, **kwargs):
            calls.append(dist)
            return original(cls, dist, *args, **kwargs)

        monkeypatch.setattr(Histogram, "from_distribution", classmethod(counting))
        wf = montage(degrees=1, seed=2)
        reg = ImportRegistry()
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("montage", wf)
        ir = translate(WLogProgram.from_source(scheduling_program(deadline_seconds=1e9)), reg)
        compile_or_raise(ir, num_samples=20, seed=1)
        assert calls == []

        histogram_module._discretize.cache_clear()
        ir.evaluate(configs_rules(wf, "m1.small"), max_iter=1)
        distinct = {d for itype in catalog for d in (itype.seq_io, itype.network)}
        assert calls and set(calls) <= distinct
        assert 0 < histogram_module._discretize.cache_info().misses <= len(distinct)

    def test_deterministic_mode_flag(self, setup):
        wf, reg = setup
        ir = translate(WLogProgram.from_source(scheduling_program()), reg, deterministic=True)
        assert ir.deterministic


class TestEvaluation:
    def test_goal_value_matches_eq1(self, setup, catalog, runtime_model):
        """Deterministic evaluation must equal the hand-computed Eq. 1 cost."""
        wf, reg = setup
        src = scheduling_program(percentile=90, deadline_seconds=1e9)
        ir = translate(WLogProgram.from_source(src), reg, deterministic=True)
        ev = ir.evaluate(configs_rules(wf, "m1.small"), max_iter=1)
        expected = sum(
            runtime_model.mean(wf.task(t), "m1.small") * catalog.price("m1.small") / 3600
            for t in wf.task_ids
        )
        # The IR's exetime means come from histograms (bounded discretization error).
        assert ev.goal_value == pytest.approx(expected, rel=0.05)
        assert ev.feasible

    def test_loose_deadline_feasible_tight_infeasible(self, setup, runtime_model):
        wf, reg = setup
        serial = sum(runtime_model.mean(wf.task(t), "m1.small") for t in wf.task_ids)
        loose = translate(
            WLogProgram.from_source(scheduling_program(percentile=90, deadline_seconds=serial * 2)),
            reg,
        )
        tight = translate(
            WLogProgram.from_source(scheduling_program(percentile=90, deadline_seconds=serial * 0.5)),
            reg,
        )
        rules = configs_rules(wf, "m1.small")
        assert loose.evaluate(rules, max_iter=20).feasible
        assert not tight.evaluate(rules, max_iter=20).feasible

    def test_probability_between_zero_and_one(self, setup, runtime_model):
        wf, reg = setup
        serial = sum(runtime_model.mean(wf.task(t), "m1.small") for t in wf.task_ids)
        ir = translate(
            WLogProgram.from_source(scheduling_program(percentile=96, deadline_seconds=serial)),
            reg,
        )
        ev = ir.evaluate(configs_rules(wf, "m1.small"), max_iter=40)
        assert 0.0 <= ev.constraint_probabilities[0] <= 1.0
        assert ev.iterations == 40

    def test_montecarlo_reproducible(self, setup):
        wf, reg = setup
        ir = translate(WLogProgram.from_source(scheduling_program(deadline_seconds=3000)), reg)
        rules = configs_rules(wf, "m1.medium")
        a = ir.evaluate(rules, max_iter=10, seed=3)
        b = ir.evaluate(rules, max_iter=10, seed=3)
        assert a.goal_value == b.goal_value
        assert a.constraint_probabilities == b.constraint_probabilities

    def test_cheaper_type_cheaper_goal(self, setup):
        wf, reg = setup
        ir = translate(WLogProgram.from_source(scheduling_program(deadline_seconds=1e9)), reg)
        small = ir.evaluate(configs_rules(wf, "m1.small"), max_iter=10)
        xlarge = ir.evaluate(configs_rules(wf, "m1.xlarge"), max_iter=10)
        assert small.goal_value < xlarge.goal_value

    def test_missing_goal_solution_raises(self, setup):
        wf, reg = setup
        # No configs facts at all: totalcost still proves (empty findall),
        # but maxtime fails -> constraint unsatisfied, not an error.
        ir = translate(WLogProgram.from_source(scheduling_program(deadline_seconds=100)), reg)
        ev = ir.evaluate((), max_iter=2)
        assert not ev.feasible

    def test_invalid_max_iter(self, setup):
        wf, reg = setup
        ir = translate(WLogProgram.from_source(scheduling_program()), reg)
        with pytest.raises(WLogError):
            ir.evaluate((), max_iter=0)


class TestDeterministicCollapse:
    def test_single_iteration_exact(self, setup):
        wf, reg = setup
        ir = translate(
            WLogProgram.from_source(scheduling_program(deadline_seconds=1e9)),
            reg,
            deterministic=True,
        )
        ev = ir.evaluate(configs_rules(wf, "m1.large"), max_iter=500)
        assert ev.iterations == 1  # deterministic mode ignores max_iter
        assert ev.constraint_probabilities in ((1.0,), (0.0,))


class TestReliabilityConstraint:
    def faulty(self, reg, *, failure_rate=0.05, max_retries=3, percentile=99.0):
        src = scheduling_program(
            deadline_seconds=1e9,
            failure_rate=failure_rate,
            mtbf_seconds=1e15,
            reliability_percentile=percentile,
            max_retries=max_retries,
        )
        return translate(WLogProgram.from_source(src), reg, deterministic=True)

    def test_generous_retry_budget_feasible(self, setup):
        wf, reg = setup
        ir = self.faulty(reg, failure_rate=0.05, max_retries=3)
        ev = ir.evaluate(configs_rules(wf, "m1.small"), max_iter=5)
        assert ev.feasible

    def test_no_retries_high_rate_infeasible(self, setup):
        wf, reg = setup
        # Per-task success 0.5, three tasks: ~12.5% << 99%.
        ir = self.faulty(reg, failure_rate=0.5, max_retries=0)
        ev = ir.evaluate(configs_rules(wf, "m1.small"), max_iter=5)
        assert not ev.feasible

    def test_reliability_threshold_is_exact(self, setup):
        wf, reg = setup
        # Analytic plan success with rate 0.5 and one retry: 0.75^3.
        plan_success = 0.75**3 * 100.0
        ok = self.faulty(reg, failure_rate=0.5, max_retries=1, percentile=plan_success)
        ev = ok.evaluate(configs_rules(wf, "m1.small"), max_iter=5)
        assert ev.feasible
        tight = self.faulty(
            reg, failure_rate=0.5, max_retries=1, percentile=plan_success + 0.1
        )
        assert not tight.evaluate(configs_rules(wf, "m1.small"), max_iter=5).feasible
