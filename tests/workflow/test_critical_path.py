"""Tests for critical-path and vectorized makespan computation."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.workflow.critical_path import (
    critical_path,
    makespan_samples,
    static_makespan,
    task_levels,
)
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import random_dag


class TestCriticalPath:
    def test_diamond(self, diamond):
        times = {"a": 1.0, "b": 5.0, "c": 2.0, "d": 1.0}
        path, length = critical_path(diamond, times)
        assert path == ("a", "b", "d")
        assert length == pytest.approx(7.0)

    def test_callable_times(self, diamond):
        path, length = critical_path(diamond, lambda tid: 1.0)
        assert length == pytest.approx(3.0)

    def test_single_task(self):
        wf = Workflow("one", [Task(task_id="x")])
        assert critical_path(wf, {"x": 4.0}) == (("x",), 4.0)

    def test_empty_workflow(self):
        wf = Workflow("none", [])
        assert critical_path(wf, {}) == ((), 0.0)

    def test_negative_time_rejected(self, diamond):
        with pytest.raises(ValidationError):
            critical_path(diamond, {"a": -1.0, "b": 1.0, "c": 1.0, "d": 1.0})

    def test_parallel_chains(self):
        tasks = [Task(task_id=t) for t in "abcd"]
        wf = Workflow("two-chains", tasks, [("a", "b"), ("c", "d")])
        path, length = critical_path(wf, {"a": 1, "b": 1, "c": 5, "d": 5})
        assert path == ("c", "d")
        assert length == 10.0


class TestMakespanSamples:
    def test_matches_static_for_constant_times(self, diamond):
        times = {"a": 1.0, "b": 5.0, "c": 2.0, "d": 1.0}
        vec = np.asarray([[times[t] for t in diamond.task_ids]])
        mk = makespan_samples(diamond, vec)
        assert mk[0] == pytest.approx(static_makespan(diamond, times))

    def test_random_dags_match_reference(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            wf = random_dag(12, edge_prob=0.3, seed=seed)
            sample = rng.uniform(1, 10, size=(3, len(wf)))
            mk = makespan_samples(wf, sample)
            for s in range(3):
                times = {tid: sample[s, wf.index_of(tid)] for tid in wf.task_ids}
                assert mk[s] == pytest.approx(static_makespan(wf, times))

    def test_one_dimensional_input(self, diamond):
        mk = makespan_samples(diamond, np.ones(len(diamond)))
        assert mk.shape == (1,)
        assert mk[0] == pytest.approx(3.0)

    def test_shape_mismatch_rejected(self, diamond):
        with pytest.raises(ValidationError):
            makespan_samples(diamond, np.ones((2, len(diamond) + 1)))

    def test_negative_times_rejected(self, diamond):
        with pytest.raises(ValidationError):
            makespan_samples(diamond, -np.ones((1, len(diamond))))

    def test_makespan_at_least_max_task(self, diamond):
        rng = np.random.default_rng(2)
        times = rng.uniform(1, 100, size=(50, len(diamond)))
        mk = makespan_samples(diamond, times)
        assert np.all(mk >= times.max(axis=1) - 1e-12)

    def test_makespan_at_most_sum(self, diamond):
        rng = np.random.default_rng(2)
        times = rng.uniform(1, 100, size=(50, len(diamond)))
        mk = makespan_samples(diamond, times)
        assert np.all(mk <= times.sum(axis=1) + 1e-12)


class TestLevels:
    def test_diamond_levels(self, diamond):
        levels = task_levels(diamond)
        assert levels == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_chain_levels(self, chain3):
        assert task_levels(chain3) == {"t0": 0, "t1": 1, "t2": 2}
