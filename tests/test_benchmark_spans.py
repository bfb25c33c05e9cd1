"""Every name the end-to-end benchmark's tracer wraps still exists.

``benchmarks/e2e/tracing.py::LAYER_SPANS`` wraps functions of ``repro``
by name, from outside ``src/``.  A refactor that moves or renames one
would otherwise surface only when the traced benchmark runs.  This
resolves each ``(owner, attr)`` the way ``install()`` does: a class
owner must define the attribute itself (``owner.__dict__``), so a method
that is only inherited -- and so would be wrapped on the wrong class --
fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("_e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_SPANS


LAYER_SPANS = _layer_spans()


@pytest.mark.parametrize(
    "span,owner_path,attr", LAYER_SPANS, ids=[f"{o}.{a}" for _, o, a in LAYER_SPANS]
)
def test_span_target_resolves(span, owner_path, attr):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
        raw = owner.__dict__[attr]
        target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    else:
        target = getattr(owner, attr)
    assert callable(target), (span, owner_path, attr)
