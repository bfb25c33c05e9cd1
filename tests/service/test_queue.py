"""Durable queue: priorities, admission control, terminal exactly-once."""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    AdmissionError,
    JobNotFound,
    ServiceError,
    ValidationError,
)
from repro.service import (
    PRIORITY_CLASSES,
    TERMINAL_STATES,
    DurableQueue,
    JobJournal,
    JobRecord,
    TokenBucket,
)
from repro.service.jobs import validate_payload
from repro.service.journal import fold_events, replay_events

from .chaos import live_state_mismatches

pytestmark = pytest.mark.usefixtures("fast_service")


def _payload(seed: int = 0) -> dict:
    return {"workflow": {"app": "montage", "degrees": 1.0, "seed": seed}}


@pytest.fixture()
def queue(tmp_path):
    journal = JobJournal(tmp_path / "q.jsonl")
    q = DurableQueue(journal, reject_depth=8)
    yield q
    journal.close()


class TestValidatePayload:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("deadline", float("inf")),
            ("deadline", float("nan")),
            ("deadline", True),
            ("percentile", True),
            ("percentile", float("nan")),
            ("solve_deadline_s", float("inf")),
            ("solve_deadline_s", True),
        ],
    )
    def test_rejects_non_finite_numbers_and_booleans(self, key, value):
        with pytest.raises(ValidationError, match=f"payload.{key}"):
            validate_payload({**_payload(), key: value})

    def test_accepts_finite_numbers(self):
        data = validate_payload(
            {**_payload(), "deadline": 3600, "percentile": 90.0, "solve_deadline_s": 2.5}
        )
        assert (data["deadline"], data["percentile"], data["backend"]) == (3600, 90.0, "gpu")

    @pytest.mark.parametrize(
        "workflow, field",
        [
            ({"app": "montage", "degrees": float("nan")}, "degrees"),
            ({"app": "montage", "degrees": 0.0}, "degrees"),
            ({"app": "montage", "degrees": "4"}, "degrees"),
            ({"app": "ligo", "tasks": 100.5}, "tasks"),
            ({"app": "ligo", "tasks": True}, "tasks"),
            ({"app": "ligo", "tasks": 3}, "tasks"),
            ({"app": "montage", "tasks": 9}, "tasks"),
            ({"app": "ligo", "tasks": "100"}, "tasks"),
            ({"app": "montage", "degrees": 1.0, "seed": -1}, "seed"),
            ({"app": "montage", "degrees": 1.0, "seed": 1.5}, "seed"),
            ({"app": "montage", "degrees": 1.0, "seed": "7"}, "seed"),
            ({"app": "montage", "degrees": 1.0, "seed": None}, "seed"),
        ],
    )
    def test_rejects_malformed_workflow_numbers(self, workflow, field):
        with pytest.raises(ValidationError, match=f"payload.workflow.{field}"):
            validate_payload({"workflow": workflow})

    def test_rejects_an_unhashable_app(self):
        with pytest.raises(ValidationError, match="unknown workflow app"):
            validate_payload({"workflow": {"app": ["montage"]}})

    @pytest.mark.parametrize("key, value", [("wlog", 42), ("wlog", ["a."]), ("faults", "none"),
                                            ("faults", [0.1])])
    def test_rejects_wlog_that_is_not_text_and_faults_that_are_not_an_object(self, key, value):
        with pytest.raises(ValidationError, match=f"payload.{key}"):
            validate_payload({**_payload(), key: value})

    def test_accepts_well_formed_references(self):
        validate_payload({"workflow": {"app": "ligo", "tasks": 6, "seed": 0}})
        validate_payload({"workflow": {"app": "montage", "degrees": 4, "seed": 2**40}})
        validate_payload({**_payload(), "wlog": "", "faults": None})
        validate_payload({**_payload(), "faults": {"task_failure_rate": 0.05}})

    def test_backend_choices_come_from_backend_names(self):
        with pytest.raises(ValidationError, match=r"one of gpu\|analytic, got 'cpu'"):
            validate_payload({**_payload(), "backend": "cpu"})


class TestTokenBucket:
    def test_burst_then_rate_limit(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, capacity=3.0, clock=lambda: now[0])
        assert [bucket.try_take() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # refill exactly one token
        assert bucket.try_take() == 0.0

    def test_capacity_caps_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, capacity=2.0, clock=lambda: now[0])
        now[0] += 100.0
        assert bucket.try_take(2.0) == 0.0
        assert bucket.try_take(1.0) > 0.0

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            TokenBucket(rate=0.0, capacity=1.0)


class TestSubmitAndClaim:
    def test_priority_classes_dispatch_in_rank_order(self, queue):
        batch = queue.submit(_payload(1), priority="batch")
        standard = queue.submit(_payload(2), priority="standard")
        interactive = queue.submit(_payload(3), priority="interactive")
        order = [queue.claim().job_id for _ in range(3)]
        assert order == [interactive.job_id, standard.job_id, batch.job_id]

    def test_fifo_within_priority_class(self, queue):
        first = queue.submit(_payload(1))
        second = queue.submit(_payload(2))
        assert queue.claim().job_id == first.job_id
        assert queue.claim().job_id == second.job_id

    def test_claim_marks_running_and_counts_attempt(self, queue):
        queue.submit(_payload())
        job = queue.claim()
        assert job.state == "running"
        assert job.attempts == 1
        assert queue.claim() is None

    def test_malformed_payload_rejected_before_journal(self, queue, tmp_path):
        with pytest.raises(ValidationError):
            queue.submit({"workflow": {}})
        assert queue.journal.appends == 0

    def test_unknown_priority_rejected(self, queue):
        with pytest.raises(ValidationError, match="priority"):
            queue.submit(_payload(), priority="urgent")

    def test_cache_hit_is_born_completed_and_never_claimable(self, queue):
        job = queue.submit(_payload(1), result={"plan": "cached"})
        assert job.state == "completed"
        assert job.cache_hit is True
        assert queue.claim() is None
        events = [e["event"] for e in replay_events(queue.journal.path)]
        assert events == ["submitted", "completed"]


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        queue = DurableQueue(JobJournal(tmp_path / "q.jsonl"), reject_depth=2)
        queue.submit(_payload(1))
        queue.submit(_payload(2))
        with pytest.raises(AdmissionError) as exc_info:
            queue.submit(_payload(3))
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.retry_after_s > 0
        assert queue.rejected == 1

    def test_rejected_jobs_are_never_journaled(self, tmp_path):
        queue = DurableQueue(JobJournal(tmp_path / "q.jsonl"), reject_depth=1)
        queue.submit(_payload(1))
        with pytest.raises(AdmissionError):
            queue.submit(_payload(2))
        assert queue.journal.appends == 1  # only the accepted job

    def test_per_tenant_rate_limit_isolated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(DurableQueue, "TENANT_RATE", 0.001)
        monkeypatch.setattr(DurableQueue, "TENANT_BURST", 1.0)
        queue = DurableQueue(JobJournal(tmp_path / "q.jsonl"), reject_depth=100, workers=2)
        # Below `workers` unfinished jobs the bucket is not charged.
        alice = [queue.submit(_payload(i), tenant="alice") for i in range(2)]
        # Holding `workers` jobs, each further one is charged: the burst
        # token admits one, then alice is refused.
        queue.submit(_payload(2), tenant="alice")
        with pytest.raises(AdmissionError) as exc_info:
            queue.submit(_payload(3), tenant="alice")
        assert exc_info.value.reason == "rate_limited"
        assert exc_info.value.retry_after_s > 0
        assert queue.rate_limited == 1
        # Bob's bucket is untouched by Alice exhausting hers.
        queue.submit(_payload(4), tenant="bob")
        # Once alice's work drains below `workers`, she is admitted again.
        for job in alice:
            queue.claim()
            queue.finish(job.job_id, "completed", result={})
        queue.submit(_payload(5), tenant="alice")

    def test_terminal_jobs_free_queue_depth(self, tmp_path):
        queue = DurableQueue(JobJournal(tmp_path / "q.jsonl"), reject_depth=1)
        job = queue.submit(_payload(1))
        queue.claim()
        queue.finish(job.job_id, "completed", result={})
        queue.submit(_payload(2))  # depth freed: no AdmissionError

    def test_submit_does_not_scan_the_job_history(self, queue):
        history = _ScanCountingJobs(
            (f"old-{i}", JobRecord(job_id=f"old-{i}", state="completed"))
            for i in range(50_000)
        )
        queue._jobs = history
        for i in range(3):
            queue.submit(_payload(i), tenant="alice")
        assert queue.depth == 3
        assert history.scans == 0


class _ScanCountingJobs(dict):
    """A job table that counts every walk over its entries."""

    scans = 0

    def _scan(self, walk):
        self.scans += 1
        return walk()

    def __iter__(self):
        return self._scan(super().__iter__)

    def keys(self):
        return self._scan(super().keys)

    def values(self):
        return self._scan(super().values)

    def items(self):
        return self._scan(super().items)


class TestTerminalExactlyOnce:
    def test_second_finish_raises(self, queue):
        job = queue.submit(_payload())
        queue.claim()
        queue.finish(job.job_id, "completed", result={})
        with pytest.raises(ServiceError, match="already terminal"):
            queue.finish(job.job_id, "degraded")

    @pytest.mark.parametrize("state", ["submitted", "started", "requeued", "queued", "running"])
    def test_finish_refuses_a_non_terminal_state_before_journaling(self, queue, state):
        job = queue.submit(_payload())
        queue.claim()
        with pytest.raises(ValidationError, match="terminal state"):
            queue.finish(job.job_id, state)
        assert queue.journal.appends == 2  # submitted + started, nothing more
        assert queue.get(job.job_id).state == "running"
        assert fold_events(replay_events(queue.journal.path))[job.job_id].state == "queued"

    def test_a_failed_started_append_leaves_the_job_claimable(self, queue, monkeypatch):
        """A ``started`` append that raises (a full disk) changes nothing:
        the job stays queued, in the heap, and the next claim takes it."""
        job = queue.submit(_payload())
        append = queue.journal.append

        def disk_full_once(event, **fields):
            monkeypatch.setattr(queue.journal, "append", append)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(queue.journal, "append", disk_full_once)
        with pytest.raises(OSError):
            queue.claim()
        assert queue.get(job.job_id).state == "queued" and queue.depth == 1
        claimed = queue.claim()
        assert claimed.job_id == job.job_id and claimed.state == "running"
        assert live_state_mismatches(queue.jobs(), queue.journal.path) == []

    def test_requeue_after_terminal_raises(self, queue):
        job = queue.submit(_payload())
        queue.claim()
        queue.finish(job.job_id, "dead_lettered", error={"type": "X"})
        with pytest.raises(ServiceError, match="already terminal"):
            queue.requeue(job.job_id)

    def test_unknown_job_raises_jobnotfound(self, queue):
        with pytest.raises(JobNotFound):
            queue.get("job-nope")


class TestBackoffAndRecovery:
    def test_backoff_defers_claim_without_blocking_others(self, queue):
        crashed = queue.submit(_payload(1))
        queue.claim()
        queue.requeue(crashed.job_id, backoff_s=60.0)
        other = queue.submit(_payload(2))
        # The backoff job is skipped; the fresh one dispatches.
        assert queue.claim().job_id == other.job_id
        assert queue.claim() is None  # crashed job still cooling down

    def test_restart_replays_inflight_jobs_into_queue(self, tmp_path):
        path = tmp_path / "q.jsonl"
        journal = JobJournal(path)
        queue = DurableQueue(journal)
        done = queue.submit(_payload(1))
        queue.claim()
        queue.finish(done.job_id, "completed", result={})
        inflight = queue.submit(_payload(2))
        queue.claim()  # running when the "crash" happens
        queued = queue.submit(_payload(3))
        journal.close()

        restarted = DurableQueue(JobJournal(path))
        assert restarted.get(done.job_id).state == "completed"
        assert restarted.get(inflight.job_id).state == "queued"
        assert restarted.get(queued.job_id).state == "queued"
        assert restarted.recovered_inflight == 1
        claimable = {restarted.claim().job_id, restarted.claim().job_id}
        assert claimable == {inflight.job_id, queued.job_id}

    def test_restart_does_not_count_a_backoff_wait_as_inflight(self, tmp_path):
        path = tmp_path / "q.jsonl"
        journal = JobJournal(path)
        queue = DurableQueue(journal)
        job = queue.submit(_payload(1))
        queue.claim()
        queue.requeue(job.job_id, backoff_s=60.0)  # waiting out a crash backoff
        journal.close()

        restarted = DurableQueue(JobJournal(path))
        assert restarted.recovered_inflight == 0
        assert restarted.get(job.job_id).state == "queued"
        assert restarted.get(job.job_id).attempts == 1

    def test_next_ready_in_reports_backoff_due_time(self, queue):
        assert queue.next_ready_in() is None
        job = queue.submit(_payload(1))
        queue.claim()
        queue.requeue(job.job_id, backoff_s=60.0)
        assert 59.0 < queue.next_ready_in() <= 60.0
        assert queue.claim() is None


#: One queue operation per draw; a terminal state finishes a job.
_OPERATIONS = ["submit", "cache_hit", "claim", "requeue", "requeue_backoff", "restart",
               *sorted(TERMINAL_STATES)]


class TestLiveStateIsReplayedState:
    """After every operation, each live job equals the same job in the
    fold of the journal (a running one re-queued with the same attempts)."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_operation_matches_the_fold(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "q.jsonl")
            queue = DurableQueue(JobJournal(path), reject_depth=1000)
            try:
                for step in range(data.draw(st.integers(1, 24))):
                    queue = self._operate(queue, path, step, data)
                    assert live_state_mismatches(queue.jobs(), path) == []
            finally:
                queue.journal.close()

    @staticmethod
    def _operate(queue: DurableQueue, path: str, step: int, data) -> DurableQueue:
        op = data.draw(st.sampled_from(_OPERATIONS))
        running = [job.job_id for job in queue.jobs() if job.state == "running"]
        unfinished = [job.job_id for job in queue.jobs() if not job.terminal]
        if op == "submit":
            queue.submit(
                _payload(step),
                tenant=data.draw(st.sampled_from(["alice", "bob"])),
                priority=data.draw(st.sampled_from(sorted(PRIORITY_CLASSES))),
                degraded=data.draw(st.booleans()),
                degrade_reason="load_shed",
            )
        elif op == "cache_hit":
            queue.submit(_payload(step), result={"plan": step, "cache_hit": True})
        elif op == "claim":
            queue.claim()
        elif op.startswith("requeue") and running:
            backoff = 60.0 if op == "requeue_backoff" else 0.0
            queue.requeue(data.draw(st.sampled_from(running)), backoff_s=backoff)
        elif op == "restart":
            queue.journal.close()
            queue = DurableQueue(JobJournal(path), reject_depth=1000)
        elif op in TERMINAL_STATES and unfinished:
            job_id = data.draw(st.sampled_from(unfinished))
            if op == "dead_lettered":
                queue.finish(job_id, op, error={"type": "X", "attempts": step})
            else:
                queue.finish(job_id, op, result={"plan": step},
                             degraded=op == "degraded" or None,
                             degrade_reason="solve_timeout" if op == "degraded" else None)
        return queue


def _fail_once(monkeypatch, queue, event: str) -> None:
    """Make the next ``event`` append raise as a full disk does."""
    append = queue.journal.append

    def disk_full(name, **fields):
        if name != event:
            return append(name, **fields)
        monkeypatch.setattr(queue.journal, "append", append)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(queue.journal, "append", disk_full)


class TestFailedAppends:
    """An append that raises leaves every live job equal to the fold of
    what reached the journal."""

    def test_a_failed_cache_hit_completion_leaves_a_claimable_job(self, queue, monkeypatch):
        _fail_once(monkeypatch, queue, "completed")
        with pytest.raises(OSError):
            queue.submit(_payload(), result={"plan": {}})
        (job,) = queue.jobs()
        assert job.state == "queued" and queue.depth == 1
        assert live_state_mismatches(queue.jobs(), queue.journal.path) == []
        claimed = queue.claim()
        assert claimed is not None and claimed.job_id == job.job_id
        queue.finish(job.job_id, "completed", result={"plan": {}})
        assert queue.depth == 0
        assert live_state_mismatches(queue.jobs(), queue.journal.path) == []

    def test_a_failed_requeue_leaves_the_job_running_without_backoff(self, queue, monkeypatch):
        job = queue.submit(_payload())
        queue.claim()
        _fail_once(monkeypatch, queue, "requeued")
        with pytest.raises(OSError):
            queue.requeue(job.job_id, backoff_s=60.0)
        assert queue.get(job.job_id).state == "running" and queue.depth == 1
        assert queue.next_ready_in() is None and job.job_id not in queue._not_before
        assert live_state_mismatches(queue.jobs(), queue.journal.path) == []
        queue.requeue(job.job_id)
        assert queue.claim().job_id == job.job_id
