"""Tests for the structural dominance facts carried by :class:`OpMask`."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import parent_index_tuples
from repro.analysis.dominance import OpMask, _structural_disabled, compute_op_mask
from repro.engine.plan import deadline_presets
from repro.solver.backends import CompiledProblem
from repro.workflow.generators import montage, pipeline
from repro.workflow.runtime_model import RuntimeModel


def _compile(wf, catalog, seed, num_samples=64):
    return CompiledProblem.compile(
        wf, catalog, deadline=deadline_presets(wf, catalog).medium,
        percentile=90.0, num_samples=num_samples, seed=seed,
        runtime_model=RuntimeModel(catalog),
    )


class TestOpMaskConstruction:
    def test_compute_op_mask_is_structural(self, catalog):
        """Montage on the EC2 ladder: several types, wide levels, nothing vacuous."""
        problem = _compile(montage(degrees=1.0, seed=7), catalog, 7)
        assert compute_op_mask(problem) == OpMask(disabled_ops=frozenset())

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown transformation ops"):
            OpMask(disabled_ops=frozenset({"teleport"}))

    def test_single_type_disables_promote_family(self):
        mask = OpMask(_structural_disabled(((), (0,), (0,), (1, 2)), num_types=1))
        assert mask == OpMask(disabled_ops=frozenset({"promote", "demote"}))
        assert not mask.allows("promote") and not mask.allows("demote")
        assert mask.allows("merge")

    def test_chain_disables_consolidation_family(self, catalog):
        wf = pipeline(num_tasks=5, seed=0)
        assert _structural_disabled(parent_index_tuples(wf), len(catalog.type_names)) == {
            "merge", "co_schedule"
        }
        mask = compute_op_mask(_compile(wf, catalog, 0))
        assert mask == OpMask(disabled_ops=frozenset({"merge", "co_schedule"}))
        assert not mask.allows("merge") and not mask.allows("co_schedule")
        assert mask.allows("promote")
