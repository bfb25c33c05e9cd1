"""What the host lends this process."""

from __future__ import annotations

import os

__all__ = ["host_cpu_count"]


def host_cpu_count() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
