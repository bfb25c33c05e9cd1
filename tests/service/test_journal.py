"""Write-ahead journal: durability, torn tails, exactly-once replay."""

from __future__ import annotations

import json

import pytest

from repro.common.errors import JournalCorrupt, ValidationError
from repro.service import DurableQueue, JobJournal, JobRecord, fold_events, replay_events


def _submit_event(journal: JobJournal, job_id: str, **over) -> JobRecord:
    job = JobRecord(job_id=job_id, payload={"workflow": {"app": "montage"}}, **over)
    journal.append("submitted", ts=1.0, job=job.to_dict())
    return job


class TestAppend:
    def test_append_then_replay_round_trips(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts=1)
            journal.append("completed", ts=3.0, job_id="a", result={"plan": {}})
            jobs = fold_events(replay_events(journal.path))
        assert jobs["a"].state == "completed"
        assert jobs["a"].result == {"plan": {}}
        assert jobs["a"].finished_at == 3.0

    def test_unknown_event_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValidationError, match="unknown journal event"):
            journal.append("exploded", job_id="a")

    def test_every_append_is_on_disk_immediately(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        _submit_event(journal, "a")
        # Read through a separate handle without closing the writer: the
        # record must already be durable (fsync'd, newline-terminated).
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "submitted"
        journal.close()

    def test_close_is_idempotent(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        _submit_event(journal, "a")
        journal.close()
        journal.close()
        # Reopen-on-append after close also works.
        journal.append("started", ts=2.0, job_id="a", attempts=1)
        journal.close()


class TestTornTail:
    def test_torn_final_line_dropped_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
            _submit_event(journal, "b")
        # Crash mid-append: the final record is half-written, no newline.
        with open(path, "a") as fh:
            fh.write('{"event": "completed", "job_id": "b", "re')
        with pytest.warns(RuntimeWarning, match="torn final record"):
            jobs = fold_events(replay_events(path))
        assert set(jobs) == {"a", "b"}
        assert jobs["b"].state == "queued"  # the torn terminal never happened

    def test_torn_tail_with_newline_still_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"event": "started", "jo')  # torn, no newline
        with pytest.warns(RuntimeWarning):
            jobs = fold_events(replay_events(path))
        assert jobs["a"].state == "queued"

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts=1)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20]  # damage a NON-tail record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorrupt) as exc_info:
            list(replay_events(path))
        assert exc_info.value.line_number == 1
        assert exc_info.value.path == str(path)

    def test_empty_and_missing_journals_replay_clean(self, tmp_path):
        assert fold_events(replay_events(tmp_path / "missing.jsonl")) == {}
        (tmp_path / "empty.jsonl").write_text("")
        assert fold_events(replay_events(tmp_path / "empty.jsonl")) == {}


class TestFold:
    def test_running_jobs_requeued_on_replay(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts=1)
            jobs = fold_events(replay_events(journal.path))
        assert jobs["a"].state == "queued"
        assert jobs["a"].attempts == 1  # the dead attempt still counts

    def test_second_terminal_event_is_structural_corruption(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts=1)
            journal.append("completed", ts=3.0, job_id="a")
            journal.append("degraded", ts=4.0, job_id="a")
            with pytest.raises(JournalCorrupt, match="exactly-once"):
                fold_events(replay_events(journal.path))

    def test_event_for_unknown_job_is_corruption(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            journal.append("started", ts=2.0, job_id="ghost", attempts=1)
            with pytest.raises(JournalCorrupt, match="unknown job"):
                fold_events(replay_events(journal.path))

    def test_requeue_then_finish_replays_terminal(self, tmp_path):
        with JobJournal(tmp_path / "j.jsonl") as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts=1)
            journal.append("requeued", ts=3.0, job_id="a", backoff_s=0.1)
            journal.append("started", ts=4.0, job_id="a", attempts=2)
            journal.append(
                "dead_lettered", ts=5.0, job_id="a",
                error={"type": "BrokenProcessPool", "message": "x", "attempts": 2},
            )
            jobs = fold_events(replay_events(journal.path))
        assert jobs["a"].state == "dead_lettered"
        assert jobs["a"].attempts == 2
        assert jobs["a"].error["type"] == "BrokenProcessPool"


class TestBootInputIsValidated:
    """The journal is outside input at boot: a record a correct service
    never writes is :class:`JournalCorrupt`, never a bare KeyError/TypeError."""

    @pytest.mark.parametrize(
        "record",
        [
            {"event": "submitted", "ts": 1.0},
            {"event": "submitted", "ts": 1.0, "job": "a"},
            {"event": "submitted", "ts": 1.0, "job": 7},
            {"event": "submitted", "ts": 1.0, "job": {"tenant": "x"}},
            {"event": "submitted", "ts": 1.0, "job": {"job_id": "b", "priority": "urgent"}},
            {"event": "submitted", "ts": 1.0, "job": {"job_id": "b", "state": "exploded"}},
            {"event": "submitted", "ts": 1.0, "job": {"job_id": "b", "state": "running"}},
            {"event": "submitted", "ts": 1.0, "job": {"job_id": "a"}},
            {"event": "exploded", "ts": 2.0, "job_id": "a"},
        ],
    )
    def test_malformed_record_is_corruption(self, tmp_path, record):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(JournalCorrupt):
            fold_events(replay_events(path))



class TestRecordFieldsAreTyped:
    """Every delta field ``apply_event`` reads must have the type
    ``JobRecord`` declares; anything else is :class:`JournalCorrupt` at boot,
    never a bad value the first ``claim`` trips over."""

    @staticmethod
    def _boot(tmp_path, *records):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
        with open(path, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return fold_events(replay_events(path))

    STARTED = {"event": "started", "ts": 2.0, "job_id": "a", "attempts": 1}
    DONE = {"event": "completed", "ts": 3.0, "job_id": "a"}

    def test_well_typed_records_boot(self, tmp_path):
        done = {**self.DONE, "result": {"plan": {}}, "error": None, "degraded": True,
                "degrade_reason": "load_shed", "cache_hit": False, "ts": 3}
        job = self._boot(tmp_path, self.STARTED, done)["a"]
        assert (job.state, job.attempts, job.finished_at, job.degraded) == ("completed", 1, 3, True)

    @pytest.mark.parametrize(
        "value", [None, "2.0", True, float("nan"), float("inf"), [2.0]],
        ids=["null", "string", "bool", "nan", "inf", "list"],
    )
    @pytest.mark.parametrize("event", ["started", "completed"])
    def test_ts(self, tmp_path, event, value):
        records = [{**self.STARTED, "ts": value}] if event == "started" else [
            self.STARTED, {**self.DONE, "ts": value}]
        with pytest.raises(JournalCorrupt, match="ts="):
            self._boot(tmp_path, *records)

    @pytest.mark.parametrize(
        "value", ["x", 0, -1, 1.0, True, None], ids=["string", "zero", "negative", "float",
                                                    "bool", "null"],
    )
    def test_attempts(self, tmp_path, value):
        with pytest.raises(JournalCorrupt, match="attempts="):
            self._boot(tmp_path, {**self.STARTED, "attempts": value})

    @pytest.mark.parametrize("name", ["result", "error"])
    @pytest.mark.parametrize("value", ["plan", 1, [1], True], ids=["string", "int", "list", "bool"])
    def test_result_and_error(self, tmp_path, name, value):
        with pytest.raises(JournalCorrupt, match=f"{name}="):
            self._boot(tmp_path, self.STARTED, {**self.DONE, name: value})

    @pytest.mark.parametrize("name", ["degraded", "cache_hit"])
    @pytest.mark.parametrize("value", [1, 0, "true", None], ids=["one", "zero", "string", "null"])
    def test_flags(self, tmp_path, name, value):
        with pytest.raises(JournalCorrupt, match=f"{name}="):
            self._boot(tmp_path, self.STARTED, {**self.DONE, name: value})

    @pytest.mark.parametrize("value", [None, 1, ["load_shed"]], ids=["null", "int", "list"])
    def test_degrade_reason(self, tmp_path, value):
        with pytest.raises(JournalCorrupt, match="degrade_reason="):
            self._boot(tmp_path, {**self.DONE, "event": "degraded", "degrade_reason": value})

    def test_a_queue_refuses_to_boot(self, tmp_path):
        """The reported case: a ``started`` record whose attempts is a string."""
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            _submit_event(journal, "a")
            journal.append("started", ts=2.0, job_id="a", attempts="x")
        with JobJournal(path) as journal, pytest.raises(JournalCorrupt):
            DurableQueue(journal)
