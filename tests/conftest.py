"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.special  # noqa: F401  (see the note below)
import scipy.stats  # noqa: F401
from hypothesis import settings

from repro.cloud.instance_types import ec2_catalog
from repro.common.rng import RngService
from repro.workflow.dag import FileSpec, Task, Workflow
from repro.workflow.runtime_model import RuntimeModel

MB = 1_000_000

# Tier-1 must be the same run every time: examples are derived from the
# test itself instead of a random seed, and no example database carries
# one host's failures into its next run.  Loaded before any test module
# is imported, so every ``@settings(...)`` in the suite inherits it.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

# The library imports SciPy on first use (DESIGN.md §19).  The suite loads
# it up front, so a hypothesis deadline times the code under test and never
# a one-second import that happens to land in one example -- which example
# would depend on test selection and order.  What is loaded when is checked
# in fresh interpreters by tests/test_import_hygiene.py.


@pytest.fixture(scope="session")
def catalog():
    return ec2_catalog()

@pytest.fixture(scope="session")
def runtime_model(catalog):
    return RuntimeModel(catalog)


@pytest.fixture()
def rngs():
    return RngService(seed=1234)


@pytest.fixture()
def rng():
    return np.random.default_rng(99)


def build_diamond(runtime: float = 100.0, data_mb: float = 500.0) -> Workflow:
    """A 4-task diamond: a -> (b, c) -> d."""
    size = int(data_mb * MB)

    def task(tid, rt):
        return Task(
            task_id=tid,
            executable=f"exe_{tid}",
            runtime_ref=rt,
            inputs=(FileSpec(f"in_{tid}", size),),
            outputs=(FileSpec(f"out_{tid}", size),),
        )

    return Workflow(
        "diamond",
        [task("a", runtime), task("b", 2 * runtime), task("c", runtime), task("d", runtime)],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )


@pytest.fixture()
def diamond() -> Workflow:
    return build_diamond()


@pytest.fixture()
def chain3() -> Workflow:
    """A 3-task chain with small data (fast in the interpreter)."""
    tasks = [
        Task(task_id=f"t{i}", executable="p", runtime_ref=60.0,
             inputs=(FileSpec(f"f{i}", 100 * MB),),
             outputs=(FileSpec(f"f{i + 1}", 100 * MB),))
        for i in range(3)
    ]
    return Workflow("chain3", tasks, [("t0", "t1"), ("t1", "t2")])
