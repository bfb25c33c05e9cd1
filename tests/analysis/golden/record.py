"""Record ``repro analyze`` findings for ``test_golden_diagnostics.py``.

Run at the commit whose diagnostics are the reference (the parent of a
change that must not move any finding)::

    PYTHONPATH=src python tests/analysis/golden/record.py

It rewrites ``diagnostics.json`` next to this file: for ``--bundled``,
for every ``examples/*.wlog`` and for the ``programs/*.wlog`` here (which
fire every E4xx/W4xx check), the exit code and the findings
``repro analyze --format json`` reports (check, severity, message and
span).  The test imports :func:`record_all` from here, so what it
compares is produced by the same code that produced the file.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "diagnostics.json"
ROOT = HERE.parents[2]


def analyze_json(argv: list[str]) -> dict:
    """Exit code and findings of ``repro analyze --format json <argv>``."""
    from repro.cli import main

    out = io.StringIO()
    code = main(["analyze", "--format", "json", *argv], out=out)
    return {"exit": code, "findings": json.loads(out.getvalue())}


def targets() -> list[str]:
    """``--bundled`` plus every program file, relative to the repo root."""
    files = [*ROOT.glob("examples/*.wlog"), *HERE.glob("programs/*.wlog")]
    return ["--bundled", *sorted(p.relative_to(ROOT).as_posix() for p in files)]


def record_target(target: str) -> dict:
    if target == "--bundled":
        return analyze_json([target])
    result = analyze_json([str(ROOT / target)])
    for finding in result["findings"]:
        finding["file"] = target  # the recording does not depend on the checkout path
    return result


def record_all() -> dict:
    return {target: record_target(target) for target in targets()}


def main() -> int:
    doc = record_all()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
