"""``repro analyze`` findings against recordings made at the parent commit.

``golden/diagnostics.json`` was written by ``golden/record.py`` before
the semantic checks lost their pass manager.  Every check, severity,
message and span over ``--bundled``, ``examples/*.wlog`` and the
``golden/programs`` must come out unchanged.
"""

from __future__ import annotations

import json

import pytest

from tests.analysis.golden import record

GOLDEN = json.loads(record.GOLDEN.read_text())


def test_recording_covers_every_target():
    assert sorted(GOLDEN) == sorted(record.targets())


def test_recording_fires_every_semantic_check():
    checks = {f["check"] for result in GOLDEN.values() for f in result["findings"]}
    assert {"E401", "E402", "E403", "W401", "W402", "W403", "W404", "W405"} <= checks


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_findings_are_the_recorded_ones(target):
    assert record.record_target(target) == GOLDEN[target]
