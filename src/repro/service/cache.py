"""Plan-result cache keyed by a canonical problem hash.

Two submissions describe the same optimization problem iff their
canonical keys match: the key covers everything that influences the
plan -- the WLog program text, the workflow identity (generator app +
parameters + seed, or DAX path), cloud/solver knobs (deadline,
percentile, backend, seeds, evaluation budget) and the faults config.
Wall-clock-only knobs (``solve_deadline_s``) are *excluded*: an ample
watchdog is bit-identical to an unbounded solve, so it must not
fragment the cache, and degraded/timed-out results are never stored in
the first place (only full-fidelity plans are worth replaying).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Mapping

from repro.common.errors import ValidationError

__all__ = ["canonical_key", "PlanCache"]

#: Payload fields that affect the resulting plan.  ``solve_deadline_s``
#: and chaos hooks are deliberately absent (wall-clock / test-only).
_KEY_FIELDS = ("workflow", "wlog", "deadline", "percentile", "backend", "faults")


def canonical_key(payload: Mapping[str, Any], *, engine_config: Mapping[str, Any] | None = None) -> str:
    """SHA-256 over the canonical JSON of the plan-determining inputs."""
    material = {field: payload.get(field) for field in _KEY_FIELDS}
    if engine_config:
        material["engine"] = dict(engine_config)
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PlanCache:
    """Thread-safe LRU over terminal result envelopes."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValidationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> dict | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            # Copy so callers annotating the envelope (cache_hit flags,
            # job ids) do not mutate the cached master.
            return json.loads(json.dumps(entry))

    def put(self, key: str, result: dict) -> None:
        with self._lock:
            self._entries[key] = json.loads(json.dumps(result))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }
