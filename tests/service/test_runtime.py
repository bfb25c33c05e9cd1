"""DecoService end to end: ladder, dispatcher, crash retry, watchdog."""

from __future__ import annotations

import time

import pytest

from repro.common.errors import AdmissionError, ValidationError
from repro.service import DecoService, ServiceConfig
from repro.service.journal import replay_events

from .conftest import ENGINE, montage_payload

pytestmark = pytest.mark.usefixtures("fast_service")


def make_service(tmp_path, **over) -> DecoService:
    defaults = dict(
        journal_path=str(tmp_path / "jobs.jsonl"),
        workers=2,
        engine=dict(ENGINE),
    )
    defaults.update(over)
    return DecoService(ServiceConfig(**defaults))


def wait_terminal(svc: DecoService, job_id: str, timeout_s: float = 60.0) -> dict:
    """Poll a started service until ``job_id`` is terminal; its status doc."""
    t_end = time.monotonic() + timeout_s
    while not svc.queue.get(job_id).terminal:
        assert time.monotonic() < t_end, f"job {job_id} not terminal after {timeout_s:g}s"
        time.sleep(0.005)
    return svc.job_status(job_id)


class TestHappyPath:
    def test_submit_solve_complete(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(montage_payload())
            assert job.state == "queued"
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "completed"
        assert doc["result"]["plan"]["feasible"] is True
        assert doc["result"]["plan"]["expected_cost"] > 0
        assert doc["latency_s"] > 0

    def test_wlog_program_payload(self, tmp_path):
        from repro.wlog.library import scheduling_program

        program = scheduling_program(
            cloud="amazonec2",
            workflow="montage",
            percentile=95.0,
            deadline_seconds=40_000.0,
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(
                {"workflow": {"app": "montage", "degrees": 1.0}, "wlog": program}
            )
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "completed"
        assert doc["result"]["plan"]["feasible"] is True

    def test_wlog_program_payload_honours_its_solve_budget(self, tmp_path):
        from repro.wlog.library import scheduling_program

        program = scheduling_program(
            cloud="amazonec2",
            workflow="montage",
            percentile=95.0,
            deadline_seconds=40_000.0,
        )
        with make_service(tmp_path) as svc:
            job = svc.submit(
                {
                    "workflow": {"app": "montage", "degrees": 1.0},
                    "wlog": program,
                    "solve_deadline_s": 1e-6,
                }
            )
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "degraded"
        assert doc["degrade_reason"] == "solve_timeout"
        assert doc["result"]["timed_out"] is True

    def test_cache_hit_served_at_submit(self, tmp_path):
        with make_service(tmp_path) as svc:
            first = svc.submit(montage_payload(seed=3))
            svc.run_until_idle(timeout_s=120)
            second = svc.submit(montage_payload(seed=3))
            assert second.state == "completed"
            assert second.cache_hit is True
            assert second.result["plan"] == svc.job_status(first.job_id)["result"]["plan"]
            assert svc.cache.stats()["hits"] == 1

    def test_dispatcher_turn_during_cache_hit_cannot_claim_it(self, tmp_path):
        # workers=1 runs jobs inline, so a claimed hit would be solved
        # inside the interleaved turn and harvested by the next one.
        with make_service(tmp_path, workers=1) as svc:
            svc.submit(montage_payload(seed=3))
            svc.run_until_idle(timeout_s=120)
            finish = svc.queue.finish

            def finish_after_a_turn(job_id, state, **kw):
                if kw.get("cache_hit"):
                    svc.step()
                return finish(job_id, state, **kw)

            svc.queue.finish = finish_after_a_turn  # type: ignore[method-assign]
            hit = svc.submit(montage_payload(seed=3))
            assert hit.cache_hit is True
            events = [
                e["event"]
                for e in replay_events(svc.journal.path)
                if e.get("job_id", e.get("job", {}).get("job_id")) == hit.job_id
            ]
            assert events == ["submitted", "completed"]
            assert svc.queue.get(hit.job_id).attempts == 0
            assert svc.pool.active() == []
            assert svc.step() == 0

    def test_different_problems_do_not_share_cache(self, tmp_path):
        with make_service(tmp_path) as svc:
            svc.submit(montage_payload(seed=3))
            svc.run_until_idle(timeout_s=120)
            other = svc.submit(montage_payload(seed=4))
            assert other.state == "queued"  # miss -> real solve
            svc.run_until_idle(timeout_s=120)

    def test_closed_service_refuses_submissions(self, tmp_path):
        svc = make_service(tmp_path)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            svc.submit(montage_payload())

    def test_unknown_engine_key_rejected_before_the_journal_opens(self, tmp_path):
        journal = tmp_path / "journal" / "jobs.jsonl"
        with pytest.raises(ValidationError, match="beam_widht") as info:
            DecoService(ServiceConfig(journal_path=str(journal), engine={"beam_widht": 6}))
        assert "max_evaluations" in str(info.value)  # the accepted keys are listed
        assert not journal.parent.exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workers", 0), ("workers", True), ("workers", 2.5),
            ("degrade_depth", 0), ("reject_depth", 0), ("reject_depth", True),
            ("max_attempts", 0), ("max_attempts", True),
            ("hang_after_s", 0), ("hang_after_s", -1), ("hang_after_s", float("inf")),
            ("hang_after_s", float("nan")), ("hang_after_s", True),
        ],
    )
    def test_setting_that_breaks_the_service_rejected_before_the_journal_opens(
        self, tmp_path, name, value
    ):
        """``degrade_depth=0`` would load-shed every job and
        ``hang_after_s <= 0`` would kill every job as hung."""
        journal = tmp_path / "journal" / "jobs.jsonl"
        with pytest.raises(ValidationError, match=name):
            DecoService(ServiceConfig(journal_path=str(journal), **{name: value}))
        assert not journal.parent.exists()


class TestDegradationLadder:
    def test_load_shed_downgrades_to_analytic(self, tmp_path):
        with make_service(tmp_path, degrade_depth=1, reject_depth=10) as svc:
            normal = svc.submit(montage_payload(seed=1))
            shed = svc.submit(montage_payload(seed=2))
            assert normal.degraded is False
            assert shed.degraded is True
            assert shed.degrade_reason == "load_shed"
            assert shed.payload["backend"] == "analytic"
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(shed.job_id)
        assert doc["state"] == "degraded"
        assert doc["result"]["probability_error_bound"] > 0
        assert svc.job_status(normal.job_id)["state"] == "completed"

    def test_degraded_results_never_enter_cache(self, tmp_path):
        with make_service(tmp_path, degrade_depth=1, reject_depth=10) as svc:
            # Holds the queue at the degrade depth and is never cached itself.
            svc.submit(montage_payload(seed=4, inject="raise"))
            shed = svc.submit(montage_payload(seed=5))
            assert shed.degraded is True
            svc.run_until_idle(timeout_s=120)
            assert svc.cache.stats()["entries"] == 0

    def test_reject_rung_after_degrade_rung(self, tmp_path):
        with make_service(tmp_path, degrade_depth=1, reject_depth=2) as svc:
            svc.submit(montage_payload(seed=1))
            degraded = svc.submit(montage_payload(seed=2))
            assert degraded.degraded is True
            with pytest.raises(AdmissionError) as exc_info:
                svc.submit(montage_payload(seed=3))
            assert exc_info.value.reason == "queue_full"
            svc.run_until_idle(timeout_s=120)

    def test_analytic_request_is_not_marked_degraded(self, tmp_path):
        with make_service(tmp_path, degrade_depth=1, reject_depth=10) as svc:
            svc.submit(montage_payload(seed=4, inject="raise"))  # queue at the degrade depth
            job = svc.submit(montage_payload(backend="analytic"))
            assert job.degraded is False  # client asked for analytic
            svc.run_until_idle(timeout_s=120)
            assert svc.job_status(job.job_id)["state"] == "completed"

    def test_readiness_reports_ladder_position(self, tmp_path):
        with make_service(tmp_path, degrade_depth=1, reject_depth=2) as svc:
            assert svc.ready()["ok"] is True
            assert svc.ready()["degraded_mode"] is False
            svc.submit(montage_payload(seed=1))
            assert svc.ready()["degraded_mode"] is True
            svc.submit(montage_payload(seed=2))
            assert svc.ready()["ok"] is False
            svc.run_until_idle(timeout_s=120)
            assert svc.ready()["ok"] is True


class TestFailurePaths:
    def test_deterministic_error_dead_letters_without_retry(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(montage_payload(inject="raise"))
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "dead_lettered"
        assert doc["attempts"] == 1  # no retry for clean failures
        assert doc["error"]["type"] == "ValidationError"
        assert doc["error"]["retryable"] is False

    def test_worker_crash_retries_then_dead_letters(self, tmp_path):
        with make_service(tmp_path, max_attempts=2) as svc:
            job = svc.submit(montage_payload(inject="exit"))
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
            assert doc["state"] == "dead_lettered"
            assert doc["attempts"] == 2  # crashed, retried, crashed again
            assert doc["error"]["retryable"] is True
            assert svc.pool.respawns >= 2
            # The crashed worker's slot still serves later jobs.
            ok = svc.submit(montage_payload(seed=9))
            svc.run_until_idle(timeout_s=120)
            assert svc.job_status(ok.job_id)["state"] == "completed"

    def test_hang_watchdog_converts_stall_to_crash(self, tmp_path):
        with make_service(tmp_path, max_attempts=1, hang_after_s=0.5) as svc:
            job = svc.submit(montage_payload(inject="sleep:30"))
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "dead_lettered"
        assert doc["error"]["type"] == "TimeoutError"


class TestSolveWatchdog:
    def test_undersized_budget_degrades_with_incumbent(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(montage_payload(solve_deadline_s=1e-6))
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "degraded"
        assert doc["degrade_reason"] == "solve_timeout"
        assert doc["result"]["timed_out"] is True
        # Best incumbent is still a usable plan (warm starts seed it).
        assert doc["result"]["plan"]["feasible"] is True

    def test_ample_budget_completes_normally(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(montage_payload(solve_deadline_s=1e6))
            svc.run_until_idle(timeout_s=120)
            doc = svc.job_status(job.job_id)
        assert doc["state"] == "completed"
        assert doc["result"]["timed_out"] is False


class TestRestartRecovery:
    def test_terminal_history_survives_restart(self, tmp_path):
        with make_service(tmp_path) as svc:
            job = svc.submit(montage_payload())
            svc.run_until_idle(timeout_s=120)
            result = svc.job_status(job.job_id)["result"]
        with make_service(tmp_path) as svc2:
            doc = svc2.job_status(job.job_id)
            assert doc["state"] == "completed"
            assert doc["result"] == result
            assert svc2.queue.depth == 0

    def test_unfinished_jobs_resume_after_restart(self, tmp_path):
        svc = make_service(tmp_path)
        job = svc.submit(montage_payload(seed=11))
        svc.close()  # "crash" before any dispatch
        with make_service(tmp_path) as svc2:
            assert svc2.queue.get(job.job_id).state == "queued"
            svc2.run_until_idle(timeout_s=120)
            assert svc2.job_status(job.job_id)["state"] == "completed"

    def test_stats_and_health_shape(self, tmp_path):
        with make_service(tmp_path) as svc:
            svc.submit(montage_payload())
            svc.run_until_idle(timeout_s=120)
            stats = svc.stats()
            assert stats["jobs"] == {"completed": 1}
            assert stats["depth"] == 0
            assert len(stats["worker_pids"]) == 2
            assert svc.healthy()["ok"] is True


class TestBackgroundDispatcher:
    """The dispatcher thread wakes on events and timers, never on a tick."""

    def test_idle_service_does_not_spin(self, tmp_path):
        with make_service(tmp_path) as svc:
            calls = []
            step = svc.step

            def counting_step():
                calls.append(1)
                return step()

            svc.step = counting_step  # type: ignore[method-assign]
            svc.start()
            time.sleep(0.5)
            assert len(calls) <= 2

    def test_stop_on_idle_service_is_prompt(self, tmp_path):
        with make_service(tmp_path) as svc:
            svc.start()
            time.sleep(0.05)
            t0 = time.monotonic()
            svc.stop()
            assert time.monotonic() - t0 < 0.1

    def test_hang_deadline_wakes_the_watchdog(self, tmp_path):
        with make_service(tmp_path, max_attempts=1, hang_after_s=0.5) as svc:
            svc.start()
            job = svc.submit(montage_payload(inject="sleep:5"))
            # Well before the sleep ends: only the hang timer can finish it.
            doc = wait_terminal(svc, job.job_id, timeout_s=4.0)
        assert doc["state"] == "dead_lettered"
        assert doc["error"]["type"] == "TimeoutError"

    def test_crashed_job_redispatched_after_backoff_without_submit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(DecoService, "BACKOFF_BASE_S", 0.2)
        with make_service(tmp_path, max_attempts=2) as svc:
            svc.start()
            job = svc.submit(montage_payload(inject="exit"))
            doc = wait_terminal(svc, job.job_id)
        assert doc["state"] == "dead_lettered"
        assert doc["attempts"] == 2
        assert doc["error"]["retryable"] is True

    def test_closed_loop_tenant_is_never_rate_limited(self, tmp_path, monkeypatch):
        from repro.service import DurableQueue

        monkeypatch.setattr(DurableQueue, "TENANT_RATE", 0.001)
        monkeypatch.setattr(DurableQueue, "TENANT_BURST", 1.0)
        with make_service(tmp_path) as svc:
            svc.start()
            in_flight: list[str] = []
            for i in range(50):
                while len(in_flight) >= svc.pool.workers:
                    time.sleep(0.002)
                    in_flight = [j for j in in_flight if not svc.queue.get(j).terminal]
                job = svc.submit(montage_payload(seed=i, backend="analytic"))
                in_flight.append(job.job_id)
            for job_id in in_flight:
                wait_terminal(svc, job_id)
            stats = svc.stats()
        assert stats["rate_limited"] == 0
        assert stats["jobs"] == {"completed": 50}

    def test_dispatcher_error_is_counted_and_warned(self, tmp_path):
        with make_service(tmp_path) as svc:
            claim = svc.queue.claim
            raised = []

            def claim_failing_once():
                if not raised:
                    raised.append(True)
                    raise RuntimeError("injected claim fault")
                return claim()

            svc.queue.claim = claim_failing_once  # type: ignore[method-assign]
            with pytest.warns(RuntimeWarning, match="injected claim fault"):
                svc.start()
                job = svc.submit(montage_payload())
                doc = wait_terminal(svc, job.job_id)
            stats = svc.stats()
        assert doc["state"] == "completed"
        assert stats["dispatcher_errors"] == 1
        assert stats["last_dispatcher_error"] == {
            "type": "RuntimeError",
            "message": "injected claim fault",
        }
