"""Tests for the WLog -> compiled-problem lowering."""

import pytest

from repro.common.errors import WLogError
from repro.engine.compiler import compile_or_raise, try_compile
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.wlog.probir import translate
from repro.wlog.program import WLogProgram
from repro.workflow.generators import pipeline


@pytest.fixture()
def registry(catalog):
    reg = ImportRegistry()
    reg.register_cloud("amazonec2", catalog)
    reg.register_workflow("montage", pipeline(3, seed=0))
    return reg


def ir_for(src, registry):
    return translate(WLogProgram.from_source(src), registry)


class TestTryCompile:
    def test_example1_compiles(self, registry):
        ir = ir_for(scheduling_program(percentile=92, deadline_seconds=1234.0), registry)
        problem = try_compile(ir, num_samples=8)
        assert problem is not None
        assert problem.deadline == 1234.0
        assert problem.required_probability == pytest.approx(0.92)
        assert problem.num_tasks == 3

    def test_maximize_goal_rejected(self, registry):
        src = scheduling_program().replace("minimize", "maximize")
        assert try_compile(ir_for(src, registry)) is None

    def test_missing_deadline_rejected(self, registry):
        src = scheduling_program()
        src = "\n".join(l for l in src.splitlines() if not l.startswith("cons"))
        assert try_compile(ir_for(src, registry)) is None

    def test_missing_cloud_rejected(self, registry):
        src = scheduling_program().replace("import(amazonec2).", "")
        assert try_compile(ir_for(src, registry)) is None

    def test_missing_workflow_rejected(self, registry):
        src = scheduling_program().replace("import(montage).", "")
        assert try_compile(ir_for(src, registry)) is None

    def test_foreign_goal_predicate_rejected(self, registry):
        src = scheduling_program().replace("totalcost(Ct)", "megacost(Ct)")
        assert try_compile(ir_for(src, registry)) is None

    def test_compile_or_raise_message(self, registry):
        src = scheduling_program().replace("minimize", "maximize")
        with pytest.raises(WLogError, match="compilable scheduling pattern"):
            compile_or_raise(ir_for(src, registry))


class TestFaultAwareCompile:
    def faulty_src(self, **kwargs):
        defaults = dict(
            failure_rate=0.05,
            mtbf_seconds=36_000.0,
            reliability_percentile=99.0,
            max_retries=3,
        )
        defaults.update(kwargs)
        return scheduling_program(**defaults)

    def test_fault_model_and_reliability_compile(self, registry):
        problem = try_compile(ir_for(self.faulty_src(), registry), num_samples=8)
        assert problem is not None
        assert problem.faults is not None
        assert problem.faults.task_failure_rate == 0.05
        assert problem.recovery.max_retries == 3
        assert problem.reliability_required == pytest.approx(0.99)
        assert problem.plan_success_probability > 0.99

    def test_fault_tensor_is_inflated(self, registry):
        plain = try_compile(ir_for(scheduling_program(), registry), num_samples=8)
        faulty = try_compile(ir_for(self.faulty_src(), registry), num_samples=8)
        assert (faulty.tensor > plain.tensor).all()
        assert (faulty.mean_times > plain.mean_times).all()

    def test_fault_model_without_reliability_compiles(self, registry):
        src = self.faulty_src(reliability_percentile=None)
        problem = try_compile(ir_for(src, registry), num_samples=8)
        assert problem is not None
        assert problem.faults is not None
        assert problem.reliability_required == 0.0

    def test_plain_program_has_no_faults(self, registry):
        problem = try_compile(ir_for(scheduling_program(), registry), num_samples=8)
        assert problem.faults is None
        assert problem.plan_success_probability == 1.0

    def test_reliability_without_fault_model_rejected(self, registry):
        src = "\n".join(
            l
            for l in self.faulty_src().splitlines()
            if not l.startswith("fault_model")
        )
        assert try_compile(ir_for(src, registry)) is None

    def test_two_non_reliability_constraints_still_rejected(self, registry):
        src = scheduling_program() + "\ncons B in totalcost(B) satisfies budget(100.0, 1).\n"
        assert try_compile(ir_for(src, registry)) is None
