"""Tests for workflow ensembles."""

import pytest

from repro.common.errors import ValidationError
from repro.workflow.dag import Task, Workflow
from repro.workflow.ensembles import ENSEMBLE_TYPES, Ensemble, EnsembleMember, make_ensemble
from repro.workflow.generators import ligo


def tiny_wf(name):
    return Workflow(name, [Task(task_id="t0", runtime_ref=1.0)])


def make_members(n):
    return tuple(
        EnsembleMember(workflow=tiny_wf(f"w{i}"), priority=i, deadline=100.0)
        for i in range(n)
    )


class TestEnsembleMember:
    def test_score_halves_with_priority(self):
        members = make_members(3)
        assert members[0].score == 1.0
        assert members[1].score == 0.5
        assert members[2].score == 0.25

    def test_validation(self):
        with pytest.raises(ValidationError):
            EnsembleMember(workflow=tiny_wf("w"), priority=-1)
        for deadline in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                EnsembleMember(workflow=tiny_wf("w"), priority=0, deadline=deadline)
        with pytest.raises(ValidationError):
            EnsembleMember(workflow=tiny_wf("w"), priority=0, deadline_percentile=0.0)


    def test_deadline_unset_until_constrained(self):
        assert EnsembleMember(workflow=tiny_wf("w"), priority=0).deadline is None
        base = make_ensemble("constant", ligo, 2, sizes=(20,), seed=3)
        with pytest.raises(ValidationError, match="no deadline"):
            base.require_deadlines()
        base.with_constraints(budget=1.0, deadline_for=lambda m: 50.0).require_deadlines()


class TestEnsemble:
    def test_priorities_must_be_permutation(self):
        members = (
            EnsembleMember(workflow=tiny_wf("a"), priority=0),
            EnsembleMember(workflow=tiny_wf("b"), priority=2),
        )
        with pytest.raises(ValidationError):
            Ensemble("e", members)

    def test_score_eq4(self):
        e = Ensemble("e", make_members(4), budget=10.0)
        assert e.score([0, 1]) == pytest.approx(1.5)
        assert e.score([]) == 0.0
        assert e.max_score() == pytest.approx(1.875)

    def test_score_rejects_unknown_priority(self):
        e = Ensemble("e", make_members(2), budget=1.0)
        with pytest.raises(ValidationError):
            e.score([5])

    def test_by_priority_sorted(self):
        e = Ensemble("e", tuple(reversed(make_members(3))), budget=1.0)
        assert [m.priority for m in e.by_priority()] == [0, 1, 2]

    def test_needs_members(self):
        with pytest.raises(ValidationError):
            Ensemble("e", ())

    def test_with_constraints(self):
        e = Ensemble("e", make_members(2), budget=5.0)
        out = e.with_constraints(budget=7.0, deadline_for=lambda m: 50.0, deadline_percentile=90.0)
        assert out.budget == 7.0
        assert all(m.deadline == 50.0 and m.deadline_percentile == 90.0 for m in out)


class TestMakeEnsemble:
    @pytest.mark.parametrize("kind", ENSEMBLE_TYPES)
    def test_all_types_build(self, kind):
        e = make_ensemble(kind, ligo, 6, sizes=(20, 40), seed=3)
        assert len(e) == 6
        assert sorted(m.priority for m in e) == list(range(6))

    def test_constant_sizes_equal(self):
        e = make_ensemble("constant", ligo, 5, sizes=(20, 40, 80), seed=3)
        sizes = {len(m.workflow) for m in e}
        assert len(sizes) == 1

    def test_sorted_gives_priority_to_largest(self):
        e = make_ensemble("uniform_sorted", ligo, 8, sizes=(20, 100), seed=3)
        by_prio = e.by_priority()
        sizes = [len(m.workflow) for m in by_prio]
        assert sizes == sorted(sizes, reverse=True)

    def test_pareto_skews_small(self):
        e = make_ensemble("pareto_unsorted", ligo, 20, sizes=(20, 60, 120), seed=3)
        sizes = [len(m.workflow) for m in e]
        small = sum(1 for s in sizes if s < 60)
        assert small >= len(sizes) // 2

    def test_deterministic(self):
        a = make_ensemble("uniform_unsorted", ligo, 5, seed=9, sizes=(20, 40))
        b = make_ensemble("uniform_unsorted", ligo, 5, seed=9, sizes=(20, 40))
        assert [len(m.workflow) for m in a] == [len(m.workflow) for m in b]
        assert [m.priority for m in a] == [m.priority for m in b]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            make_ensemble("zipf", ligo, 5)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValidationError):
            make_ensemble("constant", ligo, 5, sizes=())
