"""Deco-as-a-service: a crash-safe solve-job runtime (DESIGN.md §14).

Layers, bottom up:

* :mod:`~repro.service.journal` -- fsync'd append-only JSONL write-ahead
  log; replay reconstructs every accepted job after a crash.
* :mod:`~repro.service.queue` -- durable priority queue with per-tenant
  token-bucket rate limits and bounded depth.
* :mod:`~repro.service.cache` -- plan-result cache keyed by a canonical
  problem hash.
* :mod:`~repro.service.pool` / :mod:`~repro.service.worker` -- warm Deco
  workers (one engine per backend per process) with explicit
  crash/hang reporting.
* :mod:`~repro.service.runtime` -- admission ladder (cache -> accept ->
  degrade-to-analytic -> reject), dispatcher, retry/backoff/dead-letter.
* :mod:`~repro.service.http` -- stdlib JSON API (``repro serve``) and
  client (``repro submit``).
"""

from repro.service.cache import PlanCache, canonical_key
from repro.service.http import ServiceClient, ServiceServer
from repro.service.jobs import PRIORITY_CLASSES, TERMINAL_STATES, JobRecord
from repro.service.journal import JobJournal, fold_events, replay_events
from repro.service.pool import WarmWorkerPool
from repro.service.queue import DurableQueue, TokenBucket
from repro.service.runtime import DecoService, ServiceConfig

__all__ = [
    "PRIORITY_CLASSES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobJournal",
    "fold_events",
    "replay_events",
    "DurableQueue",
    "TokenBucket",
    "PlanCache",
    "canonical_key",
    "WarmWorkerPool",
    "DecoService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceServer",
]
