"""Every repository path the top-level documents name exists.

README.md, DESIGN.md and EXPERIMENTS.md point readers at files under
``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and ``docs/``; a
rename or deletion that forgets a document leaves a dead pointer.  A
name with a ``*`` must match at least one file.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|examples|docs)/[\w./*-]*")


def _named_paths(document: str) -> list[tuple[int, str]]:
    text = (ROOT / document).read_text(encoding="utf-8")
    return [
        (lineno, match.group(0).rstrip("."))
        for lineno, line in enumerate(text.splitlines(), 1)
        for match in PATH.finditer(line)
    ]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_paths_exist(document):
    missing = [
        f"{document}:{lineno}: {path}"
        for lineno, path in _named_paths(document)
        if not any(ROOT.glob(path.rstrip("/")))
    ]
    assert missing == []
