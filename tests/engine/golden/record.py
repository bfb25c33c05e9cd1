"""Record search trajectories for ``test_golden_trajectories.py``.

Run at the commit whose behaviour is the reference (the parent of a PR
that must not move plans)::

    PYTHONPATH=src python tests/engine/golden/record.py

It rewrites ``trajectories.json`` next to this file.  The test imports
:func:`record_all` from here, so what it compares is produced by the
same code that produced the file.

Three engine histories are recorded per workflow, each on its own
engine, because they do not return the same plans today (ROADMAP
item 1) and a change to candidate generation must move none of them:

* ``cold``   -- a fresh serial engine per request;
* ``warm``   -- one serial engine serving tight, loose, tight, loose;
* ``sharded`` -- one ``workers=2`` engine serving tight, loose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("trajectories.json")

#: The benchmark's engine knobs, so Montage-8 runs the analytic tier.
ENGINE = {"seed": 7, "num_samples": 150, "max_evaluations": 1500}

#: Tight searches are promote-led, loose ones demote-led.
REQUESTS = (("tight", 90.0), ("loose", 99.0))


def workflows() -> dict:
    from repro.workflow import generators as g

    return {
        "montage-1": lambda: g.montage(degrees=1.0, seed=1),
        "montage-4": lambda: g.montage(degrees=4.0, seed=1),
        "montage-8": lambda: g.montage(degrees=8.0, seed=7),
        "epigenomics-100": lambda: g.epigenomics(100, seed=1),
        "ligo-100": lambda: g.ligo(100, seed=1),
        "cybershake-100": lambda: g.cybershake(100, seed=1),
    }


def _record(deco, workflow, deadline: str, percentile: float) -> dict:
    plan = deco.schedule(workflow, deadline, deadline_percentile=percentile)
    result = deco.last_result
    decision = plan.decision_dict()
    blob = json.dumps(decision, sort_keys=True).encode()
    return {
        "request": f"{deadline}/{percentile:g}",
        "decision_sha256": hashlib.sha256(blob).hexdigest(),
        "type_counts": plan.type_counts(),
        "expected_cost": plan.expected_cost,
        "probability": plan.probability,
        "feasible": plan.feasible,
        "evaluations": result.evaluations,
        "expansions": result.expansions,
        "trace": [[int(n), float(c)] for n, c in result.trace],
    }


def record_history(name: str, history: str) -> list[dict]:
    """The records of one workflow under one engine history."""
    from repro.cloud import ec2_catalog
    from repro.engine.deco import Deco

    workflow = workflows()[name]()
    catalog = ec2_catalog()
    if history == "cold":
        return [_record(Deco(catalog, **ENGINE), workflow, d, p) for d, p in REQUESTS]
    if history == "warm":
        deco = Deco(catalog, **ENGINE)
        return [_record(deco, workflow, d, p) for d, p in REQUESTS + REQUESTS]
    if history == "sharded":
        with Deco(catalog, workers=2, **ENGINE) as deco:
            return [_record(deco, workflow, d, p) for d, p in REQUESTS]
    raise ValueError(f"unknown history {history!r}")


HISTORIES = ("cold", "warm", "sharded")


def record_all() -> dict:
    return {
        name: {history: record_history(name, history) for history in HISTORIES}
        for name in workflows()
    }


def main() -> int:
    doc = record_all()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
