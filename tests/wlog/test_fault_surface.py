"""The declarative fault surface: fault_model directive + reliability cons."""

import pytest

from repro.common.errors import ValidationError, WLogError
from repro.wlog.analysis import analyze_program
from repro.wlog.library import scheduling_program
from repro.wlog.parser import parse_program
from repro.wlog.program import FaultSpec, WLogProgram

from .pretty import format_program

FAULTY = scheduling_program(
    failure_rate=0.05,
    mtbf_seconds=36_000.0,
    reliability_percentile=99.0,
    max_retries=3,
)


def checks_of(diags):
    return [d.check for d in diags]


class TestParsing:
    def test_fault_model_classified(self):
        prog = WLogProgram.from_source(FAULTY)
        assert prog.fault_spec == FaultSpec(rate=0.05, mtbf=36_000.0)

    def test_to_fault_model(self):
        fm = FaultSpec(rate=0.05, mtbf=36_000.0).to_fault_model()
        assert fm.task_failure_rate == 0.05
        assert fm.instance_mtbf == 36_000.0

    def test_plain_program_has_no_fault_spec(self):
        assert WLogProgram.from_source(scheduling_program()).fault_spec is None

    def test_duplicate_fault_model_rejected(self):
        src = FAULTY + "\nfault_model(0.1, 500.0).\n"
        with pytest.raises(WLogError, match="more than one fault_model"):
            WLogProgram.from_source(src)

    def test_directives_survive_parse(self):
        parsed = parse_program(FAULTY)
        kinds = [d.kind for d in parsed.directives]
        assert kinds.count("fault_model") == 1


class TestAnalyzer:
    def test_faulty_template_lints_clean(self):
        assert analyze_program(FAULTY) == []

    def test_bad_rate_flagged_e211(self):
        src = FAULTY.replace("fault_model(0.05,", "fault_model(1.5,")
        assert "E211" in checks_of(analyze_program(src))

    def test_bad_mtbf_flagged_e211(self):
        src = FAULTY.replace("36000.0", "0.0")
        assert "E211" in checks_of(analyze_program(src))

    def test_reliability_without_fault_model_flagged_e211(self):
        src = "\n".join(
            l for l in FAULTY.splitlines() if not l.startswith("fault_model")
        )
        diags = analyze_program(src)
        assert "E211" in checks_of(diags)
        # successprob/1 is only synthesized under a fault model.
        assert "E201" in checks_of(diags)

    def test_non_integer_retry_budget_flagged_e203(self):
        src = FAULTY.replace("reliability(99%, 3)", "reliability(99%, 2.5)")
        assert "E203" in checks_of(analyze_program(src))


class TestPrettyRoundTrip:
    def test_format_preserves_fault_model(self):
        prog = WLogProgram.from_source(FAULTY)
        text = format_program(prog)
        assert "fault_model(0.05, 36000)." in text
        assert WLogProgram.from_source(text).fault_spec == prog.fault_spec

    def test_infinite_mtbf_renders_parseable(self):
        prog = WLogProgram.from_source(FAULTY.replace("36000.0", "999999999.0"))
        reparsed = WLogProgram.from_source(format_program(prog))
        assert reparsed.fault_spec == prog.fault_spec


class TestLibraryValidation:
    def test_reliability_requires_failure_rate(self):
        with pytest.raises(ValidationError, match="failure_rate"):
            scheduling_program(reliability_percentile=99.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_rate=1.0),
            dict(failure_rate=-0.1),
            dict(failure_rate=0.1, mtbf_seconds=0.0),
            dict(failure_rate=0.1, reliability_percentile=0.0),
            dict(failure_rate=0.1, reliability_percentile=101.0),
            dict(failure_rate=0.1, reliability_percentile=99.0, max_retries=-1),
        ],
    )
    def test_bad_fault_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            scheduling_program(**kwargs)
