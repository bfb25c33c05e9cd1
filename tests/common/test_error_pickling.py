"""Pickle round-trip fidelity for the whole DecoError hierarchy.

Exceptions cross process-pool boundaries (worker -> parent) and land in
dead-letter records; a subclass that loses fields -- or worse, fails to
unpickle -- turns a diagnosable failure into a confusing one.
``BaseException.__reduce__`` reconstructs as ``cls(*args)`` and then
restores ``__dict__``, so the contract every subclass must keep is:
**every __init__ parameter after the message has a default**, and extra
state lives on the instance (not only in closure/args).

The parametrization walks ``repro.common.errors`` reflectively, so a
future subclass is covered the day it is added -- with a loud failure
here if it breaks the contract.
"""

from __future__ import annotations

import pickle

import pytest

from repro.common import errors as errors_module
from repro.common.errors import DecoError


def _all_error_classes() -> list[type]:
    """Every DecoError subclass defined in the errors module."""
    found = [
        obj
        for obj in vars(errors_module).values()
        if isinstance(obj, type) and issubclass(obj, DecoError)
    ]
    return sorted(found, key=lambda cls: cls.__name__)


#: Representative fully-populated instances, one per class.  A class
#: missing here fails test_every_error_class_has_a_sample below.
def _samples() -> dict[str, BaseException]:
    return {
        "DecoError": errors_module.DecoError("boom"),
        "ValidationError": errors_module.ValidationError("bad value: -1"),
        "CloudError": errors_module.CloudError("released instance twice"),
        "ExecutionAborted": errors_module.ExecutionAborted(
            "task t3 exhausted retries",
            task_id="t3",
            attempts=4,
            sim_time=1234.5,
            task_records=({"task": "t1"}, {"task": "t2"}),
            partial_result={"makespan": 99.0},
        ),
        "WLogError": errors_module.WLogError("wlog layer failure"),
        "WLogSyntaxError": errors_module.WLogSyntaxError(
            "unexpected token ')'", line=3, column=14, source="a.\nb.\nc(x)).\n"
        ),
        "WLogAnalysisError": errors_module.WLogAnalysisError(
            "2 diagnostics", diagnostics=("E101", "E203")
        ),
        "WLogRuntimeError": errors_module.WLogRuntimeError("unbound variable X"),
        "SolverError": errors_module.SolverError("unknown backend 'tpu'"),
        "ServiceError": errors_module.ServiceError("dispatcher wedged"),
        "JournalCorrupt": errors_module.JournalCorrupt(
            "bad record", path="/var/lib/deco/jobs.jsonl", line_number=17
        ),
        "AdmissionError": errors_module.AdmissionError(
            "queue full", reason="queue_full", retry_after_s=5.5
        ),
        "JobNotFound": errors_module.JobNotFound("no such job", job_id="job-123"),
    }


@pytest.mark.parametrize(
    "cls", _all_error_classes(), ids=lambda cls: cls.__name__
)
class TestPickleRoundTrip:
    def test_round_trip_preserves_everything(self, cls):
        sample = _samples()[cls.__name__]
        clone = pickle.loads(pickle.dumps(sample))
        assert type(clone) is type(sample)
        assert clone.args == sample.args
        assert str(clone) == str(sample)
        # Every attribute the constructor stored must survive.
        assert vars(clone) == vars(sample)

    def test_message_only_construction_survives(self, cls):
        """cls(*args) with just a message must work -- that is exactly what
        unpickling runs, whatever extra kwargs the original had."""
        if cls.__name__ == "ExecutionAborted":
            instance = cls("msg")  # kw-only extras all defaulted
        else:
            instance = cls("msg")
        clone = pickle.loads(pickle.dumps(instance))
        assert str(clone) == str(instance)

    def test_survives_highest_protocol(self, cls):
        sample = _samples()[cls.__name__]
        clone = pickle.loads(pickle.dumps(sample, protocol=pickle.HIGHEST_PROTOCOL))
        assert vars(clone) == vars(sample)


def test_every_error_class_has_a_sample():
    """A new DecoError subclass must add a fully-populated sample above."""
    missing = {cls.__name__ for cls in _all_error_classes()} - set(_samples())
    assert not missing, (
        f"add pickle-fidelity samples for new error classes: {sorted(missing)}"
    )


def test_catching_by_base_class_survives_pickling():
    """A rethrown unpickled ServiceError is still a DecoError (dead-letter
    handling and the CLI's exit-code mapping both rely on isinstance)."""
    clone = pickle.loads(
        pickle.dumps(errors_module.AdmissionError("x", reason="rate_limited"))
    )
    assert isinstance(clone, errors_module.ServiceError)
    assert isinstance(clone, DecoError)
    assert clone.reason == "rate_limited"
