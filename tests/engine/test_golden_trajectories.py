"""Search trajectories against recordings made at the parent commit.

``golden/trajectories.json`` was written by ``golden/record.py`` at the
commit *before* candidate generation moved to array passes.  A cold
serial engine, a warm one and a ``workers=2`` one are each held to their
*own* recording: they do not agree with each other today (ROADMAP
item 1), and a change that is meant to move no plan must move none of
the three, in either direction.
"""

from __future__ import annotations

import json

import pytest

from tests.engine.golden import record

GOLDEN = json.loads(record.GOLDEN.read_text())


def test_recording_covers_the_request_matrix():
    assert sorted(GOLDEN) == sorted(record.workflows())
    for histories in GOLDEN.values():
        assert sorted(histories) == sorted(record.HISTORIES)


def test_histories_disagree_in_the_recording():
    """The reason each history has its own recording (ROADMAP item 1)."""
    cold = GOLDEN["montage-8"]["cold"][1]
    warm = GOLDEN["montage-8"]["warm"][1]
    assert cold["request"] == warm["request"]
    assert cold["decision_sha256"] != warm["decision_sha256"]


@pytest.mark.parametrize("history", record.HISTORIES)
@pytest.mark.parametrize("name", sorted(record.workflows()))
def test_trajectory_is_the_recorded_one(name, history):
    got = json.loads(json.dumps(record.record_history(name, history)))
    want = GOLDEN[name][history]
    assert [r["request"] for r in got] == [r["request"] for r in want]
    for g, w in zip(got, want):
        # Scalars first, so a failure names what moved before the digest.
        for key in ("evaluations", "expansions", "trace",
                    "type_counts", "expected_cost", "probability", "feasible"):
            assert g[key] == w[key], (name, history, g["request"], key)
        assert g["decision_sha256"] == w["decision_sha256"], (name, history, g["request"])
