"""Shared fixtures for the service-layer tests.

Every test here runs real worker *processes* (the chaos scenarios kill
them), so the engine config is deliberately tiny: solves finish in
~0.1s, keeping the whole suite interactive.
"""

from __future__ import annotations

import warnings

import pytest

#: Small-but-real Deco engine overrides used by every service test.
ENGINE = {
    "seed": 7,
    "num_samples": 40,
    "max_evaluations": 120,
}


def montage_payload(seed: int = 7, **extra) -> dict:
    payload = {
        "workflow": {"app": "montage", "degrees": 1.0, "seed": seed},
        "deadline": "medium",
        "percentile": 96.0,
    }
    payload.update(extra)
    return payload


@pytest.fixture()
def fast_service(monkeypatch):
    """Token buckets that never refuse and 10 ms crash backoffs, so a test
    waits only for what it asserts on."""
    from repro.service import DecoService, DurableQueue

    monkeypatch.setattr(DurableQueue, "TENANT_RATE", 1000.0)
    monkeypatch.setattr(DurableQueue, "TENANT_BURST", 1000.0)
    monkeypatch.setattr(DecoService, "BACKOFF_BASE_S", 0.01)


@pytest.fixture(autouse=True)
def _quiet_oversubscription():
    """CI hosts often expose one usable CPU; the pool's oversubscription
    warning is expected there and irrelevant to what these tests assert."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message="requested .* worker", category=RuntimeWarning
        )
        yield
