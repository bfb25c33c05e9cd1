"""Package-level names that import their module on first access (PEP 562).

A package ``__init__`` that re-exports a heavy class makes every importer
of any sibling module pay for it: ``import repro.solver.backends`` runs
``repro/solver/__init__.py`` first, and with an eager
``from repro.solver.analytic_backend import AnalyticBackend`` there that
is ``scipy.special`` for a solve that never builds tier 0.  The packages
keep their public names -- ``from repro.solver import AnalyticBackend``,
``dir(repro.solver)`` and ``__all__`` are unchanged -- but the named
module is imported by the first attribute access instead.

Static tools see the same names through an ``if TYPE_CHECKING:`` import
block next to each call.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each public name to the module that defines it.
    The resolved object is stored in the package namespace, so only the
    first access goes through the hook.
    """

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
