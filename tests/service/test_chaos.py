"""Chaos harness acceptance: exactly-once terminals under injected faults.

The quick profile (worker kills + payload injections + journal
truncation replay) is the PR's acceptance gate; the latency profile
additionally widens every dispatcher race window.
"""

from __future__ import annotations

from .chaos import run_append_faults, run_chaos


class TestChaosQuickProfile:
    def test_kills_and_injections_terminate_exactly_once(self, tmp_path):
        report = run_chaos(
            str(tmp_path), jobs=4, external_kills=2, timeout_s=300.0
        )
        assert report.violations == []
        assert report.accepted == 6  # 4 normal + exit-injector + raise-injector
        assert sum(report.terminal_counts.values()) == report.accepted
        assert report.external_kills >= 1
        assert report.worker_respawns >= report.external_kills
        assert report.terminal_counts.get("dead_lettered", 0) >= 2
        assert report.truncation_points > 0

    def test_killed_worker_recovery_is_measured(self, tmp_path):
        report = run_chaos(str(tmp_path), jobs=4, external_kills=1, timeout_s=300.0)
        assert report.violations == []
        if report.external_kills:  # a fast drain can beat the killer to it
            assert report.recovery_s is not None
            assert report.recovery_s > 0


class TestChaosThreadedDispatcher:
    def test_kills_and_injections_terminate_exactly_once(self, tmp_path):
        report = run_chaos(
            str(tmp_path), jobs=4, external_kills=2, timeout_s=300.0, threaded=True
        )
        assert report.violations == []
        assert report.accepted == 6
        assert sum(report.terminal_counts.values()) == report.accepted
        assert report.worker_respawns >= report.external_kills
        assert report.terminal_counts.get("dead_lettered", 0) >= 2


class TestChaosWithQueueLatency:
    def test_latency_injection_does_not_break_invariants(self, tmp_path):
        report = run_chaos(
            str(tmp_path),
            jobs=3,
            external_kills=1,
            queue_latency_s=0.05,
            timeout_s=300.0,
        )
        assert report.violations == []
        assert sum(report.terminal_counts.values()) == report.accepted


class TestChaosFailedAppends:
    def test_each_event_kinds_failed_append_leaves_no_job_behind(self, tmp_path):
        report = run_append_faults(str(tmp_path), timeout_s=300.0)
        assert report.violations == []
        assert report.accepted == 6
        assert sum(report.terminal_counts.values()) == report.accepted
        assert report.terminal_counts.get("dead_lettered", 0) == 2
        assert report.terminal_counts.get("degraded", 0) >= 1
