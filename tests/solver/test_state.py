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
    def test_from_states_keeps_keys_and_order(self):
        root = PlanState.uniform(4, 1)
        states = [root, root.with_type(2, 3), PlanState(np.array([0, 1, 2, 3]))]
        block = StateBlock.from_states(states)
        assert block.keys == [s.key for s in states]
        assert block.keys == [row.tobytes() for row in block.assign]
        for i, s in enumerate(states):
            assert block.state(i) == s

    def test_take_and_concat(self):
        root = PlanState.uniform(3, 0)
        one = StateBlock.from_states([root, root.with_type(1, 2)])
        two = StateBlock.from_states([PlanState(np.array([1, 1, 0]))])
        both = StateBlock.concat([one, two])
        assert both.keys == one.keys + two.keys
        np.testing.assert_array_equal(both.assign, np.concatenate([one.assign, two.assign]))
        taken = both.take([2, 0])
        assert taken.keys == [two.keys[0], one.keys[0]]
        assert taken.keys == [row.tobytes() for row in taken.assign]

    def test_ragged_states_rejected(self):
        with pytest.raises(SolverError, match="differ in length"):
            StateBlock.from_states([PlanState.uniform(2), PlanState.uniform(3)])

    def test_pickle_ships_the_matrix_and_recuts_the_keys(self):
        root = PlanState.uniform(5, 1)
        block = StateBlock.from_states([root.with_type(t, 2) for t in range(5)])
        back = pickle.loads(pickle.dumps(block))
        assert back.keys == block.keys
        np.testing.assert_array_equal(back.assign, block.assign)
        assert not back.assign.flags.writeable


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
