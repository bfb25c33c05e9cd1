"""Analytic makespan evaluation (moment propagation, no sampling) against
the runtime model and full Monte Carlo on small DAGs, and its deadline
probabilities at the edges."""

from statistics import NormalDist

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.solver.analytic_backend import AnalyticBackend
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.state import PlanState
from repro.workflow.dag import Task, Workflow
from repro.workflow.generators import pipeline


def chain_workflow(n=3, data_mb=2000.0):
    return pipeline(n, seed=0, runtime=600.0, data_mb=data_mb)


def compile_uniform(wf, type_name, catalog, runtime_model):
    """The compiled problem of ``wf`` and its state with every task on ``type_name``."""
    problem = CompiledProblem.compile(
        wf, catalog, deadline=1e9, num_samples=4000, seed=9,
        runtime_model=runtime_model,
    )
    return problem, problem.state_from_assignment({t: type_name for t in wf.task_ids})


def moments(problem, state):
    mean, var = AnalyticBackend().makespan_moments(problem, [state])
    return float(mean[0]), float(var[0])


def probability(problem, state, deadline):
    backend = AnalyticBackend()
    return float(backend.deadline_probabilities(problem.with_deadline(deadline), [state])[0])


class TestChain:
    """On a chain the propagation is a pure sum: no join approximation."""

    def test_mean_matches_model(self, catalog, runtime_model):
        wf = chain_workflow()
        mean, _ = moments(*compile_uniform(wf, "m1.small", catalog, runtime_model))
        expected = sum(runtime_model.mean(wf.task(t), "m1.small") for t in wf.task_ids)
        assert mean == pytest.approx(expected, rel=0.02)

    def test_variance_adds_on_chain(self, catalog, runtime_model):
        wf = chain_workflow()
        problem, state = compile_uniform(wf, "m1.small", catalog, runtime_model)
        _, var = moments(problem, state)
        per_task = problem.tensor[catalog.index_of("m1.small")].var(axis=0)
        # The quantile grid trims each task's sample tail, so its
        # variance sits somewhat below the samples'.
        assert var == pytest.approx(per_task.sum(), rel=0.35)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("type_name", ["m1.small", "m1.large"])
    def test_pipeline_close_to_mc(self, catalog, runtime_model, type_name):
        problem, state = compile_uniform(chain_workflow(4), type_name, catalog, runtime_model)
        mk = VectorizedBackend().makespan_samples(problem, [state])[0]
        mean, _ = moments(problem, state)
        assert mean == pytest.approx(mk.mean(), rel=0.03)
        assert probability(problem, state, np.percentile(mk, 95)) == pytest.approx(0.95, abs=0.05)

    def test_diamond_tail_conservative(self, catalog, runtime_model, diamond):
        """At joins the independence approximation biases the tail up
        (conservative for deadline checks), never badly down."""
        problem, state = compile_uniform(diamond, "m1.medium", catalog, runtime_model)
        mk = VectorizedBackend().makespan_samples(problem, [state])[0]
        mean, var = moments(problem, state)
        p95 = mean + NormalDist().inv_cdf(0.95) * var**0.5
        assert p95 >= np.percentile(mk, 95) * 0.97
        assert mean == pytest.approx(mk.mean(), rel=0.05)


class TestDeadlineProbability:
    def test_loose_deadline_certain(self, catalog, runtime_model):
        problem, state = compile_uniform(chain_workflow(), "m1.small", catalog, runtime_model)
        assert probability(problem, state, 1e9) == 1.0

    def test_impossible_deadline_zero(self, catalog, runtime_model):
        problem, state = compile_uniform(chain_workflow(), "m1.small", catalog, runtime_model)
        assert probability(problem, state, 1.0) == 0.0

    def test_monotone_in_deadline(self, catalog, runtime_model):
        problem, state = compile_uniform(chain_workflow(), "m1.small", catalog, runtime_model)
        mean, var = moments(problem, state)
        sd = var**0.5
        probs = [probability(problem, state, d) for d in (mean - sd, mean, mean + sd)]
        assert probs == sorted(probs) and probs[0] < probs[-1]

    def test_invalid_args(self, catalog, runtime_model, diamond):
        problem, state = compile_uniform(diamond, "m1.small", catalog, runtime_model)
        with pytest.raises(SolverError):
            probability(problem, state, 0.0)
        with pytest.raises(SolverError):
            moments(problem, PlanState.uniform(1, 0))


class TestDegenerate:
    def test_empty_workflow(self, catalog, runtime_model):
        wf = Workflow("empty", [])
        assert moments(*compile_uniform(wf, "m1.small", catalog, runtime_model)) == (0.0, 0.0)

    def test_cpu_only_tasks_deterministic(self, catalog, runtime_model):
        tasks = [Task(task_id="a", runtime_ref=100.0), Task(task_id="b", runtime_ref=50.0)]
        wf = Workflow("cpu", tasks, [("a", "b")])
        mean, var = moments(*compile_uniform(wf, "m1.small", catalog, runtime_model))
        assert var == pytest.approx(0.0)
        assert mean == pytest.approx(150.0)


class TestTopologicalValidation:
    def test_declaration_order_not_trusted(self, catalog, runtime_model):
        """Tasks declared child-before-parent still propagate as a chain:
        the order comes from the edges, not from the declaration."""
        tasks = [Task(task_id="late", runtime_ref=50.0), Task(task_id="early", runtime_ref=100.0)]
        wf = Workflow("reversed", tasks, [("early", "late")])
        mean, _ = moments(*compile_uniform(wf, "m1.small", catalog, runtime_model))
        assert mean == pytest.approx(150.0)
