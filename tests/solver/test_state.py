"""Tests for the plan-state model."""

import pickle

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.solver.state import BatchEval, PlanState, StateBlock, StateEval


class TestPlanState:
    def test_uniform(self):
        s = PlanState.uniform(5, 2)
        assert len(s) == 5
        assert set(s.assignment.tolist()) == {2}

    def test_immutability(self):
        s = PlanState.uniform(3)
        with pytest.raises(ValueError):
            s.assignment[0] = 1

    def test_equality_by_content(self):
        a = PlanState(np.array([0, 1, 2]))
        b = PlanState(np.array([0, 1, 2]))
        assert a == b and hash(a) == hash(b)
        assert a != PlanState(np.array([0, 1, 3]))

    def test_with_type_copies(self):
        a = PlanState.uniform(3)
        b = a.with_type(1, 2)
        assert a.assignment[1] == 0
        assert b.assignment[1] == 2

    def test_promote_demote(self):
        s = PlanState.uniform(2, 0)
        up = s.promote(0, num_types=4)
        assert up.assignment[0] == 1
        assert up.demote(0) == s

    def test_promote_saturates(self):
        s = PlanState.uniform(2, 3)
        assert s.promote(0, num_types=4) is None

    def test_demote_saturates(self):
        assert PlanState.uniform(2, 0).demote(0) is None

    def test_negative_index_rejected(self):
        with pytest.raises(SolverError):
            PlanState(np.array([-1, 0]))

    def test_2d_rejected(self):
        with pytest.raises(SolverError):
            PlanState(np.zeros((2, 2)))


class TestStateEval:
    def _ev(self, cost, prob, feasible):
        return StateEval(cost=cost, probability=prob, feasible=feasible, mean_makespan=1.0)

    def test_feasible_beats_infeasible(self):
        good = self._ev(100.0, 0.99, True)
        bad = self._ev(1.0, 0.5, False)
        assert good.better_than(bad)
        assert not bad.better_than(good)

    def test_among_feasible_cheaper_wins(self):
        a = self._ev(1.0, 0.97, True)
        b = self._ev(2.0, 0.99, True)
        assert a.better_than(b)

    def test_among_infeasible_higher_probability_wins(self):
        a = self._ev(5.0, 0.9, False)
        b = self._ev(1.0, 0.5, False)
        assert a.better_than(b)

    def test_anything_beats_none(self):
        assert self._ev(1.0, 0.0, False).better_than(None)


class TestStateBlock:
    def test_from_states_keeps_keys_lineage_and_order(self):
        root = PlanState.uniform(4, 1)
        states = [root, root.with_type(2, 3), PlanState(np.array([0, 1, 2, 3]), root.key, (0, 3))]
        block = StateBlock.from_states(states)
        assert block.keys == [s.key for s in states]
        assert block.keys == [row.tobytes() for row in block.assign]
        assert block.parent_keys == [None, root.key, root.key]
        assert block.dirty.tolist() == [[-1, -1], [2, -1], [0, 3]]
        for i, s in enumerate(states):
            back = block.state(i)
            assert back == s and back.parent_key == s.parent_key and back.dirty == s.dirty

    def test_take_and_concat_pad_the_dirty_sets(self):
        root = PlanState.uniform(3, 0)
        one = StateBlock.from_states([root, root.with_type(1, 2)])
        two = StateBlock.from_states([PlanState(np.array([1, 1, 0]), root.key, (0, 1))])
        both = StateBlock.concat([one, two])
        assert both.dirty.tolist() == [[-1, -1], [1, -1], [0, 1]]
        assert both.take([2, 0]).keys == [two.keys[0], one.keys[0]]
        sizes, tasks = both.dirty_sets(np.array([2, 1]), 3)
        assert sizes.tolist() == [2, 1] and tasks.tolist() == [0, 1, 1]

    def test_dirty_sets_reject_empty_and_out_of_range(self):
        root = PlanState.uniform(3, 0)
        block = StateBlock.from_states([root, root.with_type(2, 1)])
        with pytest.raises(SolverError, match="out of range"):
            block.dirty_sets(np.array([0]), 3)  # no lineage: an empty set
        with pytest.raises(SolverError, match="out of range"):
            block.dirty_sets(np.array([1]), 2)
        with pytest.raises(SolverError, match="out of range"):
            StateBlock.from_states([PlanState(np.zeros(3), root.key, (-1,))])

    def test_ragged_states_rejected(self):
        with pytest.raises(SolverError, match="differ in length"):
            StateBlock.from_states([PlanState.uniform(2), PlanState.uniform(3)])

    def test_pickle_ships_the_matrix_and_recuts_the_keys(self):
        root = PlanState.uniform(5, 1)
        block = StateBlock.from_states([root.with_type(t, 2) for t in range(5)])
        back = pickle.loads(pickle.dumps(block))
        assert back.keys == block.keys and back.parent_keys == block.parent_keys
        np.testing.assert_array_equal(back.dirty, block.dirty)
        assert not back.assign.flags.writeable

    def test_parents_of_keeps_the_parents_of_some_child(self):
        a, b, c = (PlanState.uniform(3, t) for t in range(3))
        parents = StateBlock.from_states([a, b, c])
        children = StateBlock.from_states([c.with_type(0, 1), a.with_type(1, 2)])
        assert parents.parents_of(children).keys == [a.key, c.key]


class TestBatchEval:
    def test_rows_read_back_as_state_evals(self):
        evals = BatchEval(
            np.array([1.0, 2.0]), np.array([0.5, 1.0]), np.array([False, True]),
            np.array([10.0, 20.0]), np.array(["mc", "analytic"]),
        )
        assert list(evals) == [
            StateEval(1.0, 0.5, False, 10.0, "mc"),
            StateEval(2.0, 1.0, True, 20.0, "analytic"),
        ]
        merged = BatchEval.empty(3)
        merged.put(np.array([2, 0]), evals)
        assert merged.source.tolist() == ["analytic", "", "mc"]
        assert BatchEval.concat([evals.take([1]), evals.take([0])])[0] == evals[1]
