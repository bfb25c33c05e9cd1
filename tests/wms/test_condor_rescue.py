"""FAILED/HELD job states and DAGMan-style rescue semantics."""

import pytest

from repro.common.errors import ValidationError
from repro.wms.condor import CondorQueue, JobState


class TestFailureStates:
    def test_fail_and_retry_cycle(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        q.fail("a", 5.0)
        assert q.state("a") == JobState.FAILED
        q.retry("a", 6.0)
        assert q.state("a") == JobState.IDLE
        q.start("a", 6.0)
        assert q.finish("a", 10.0)

    def test_fail_requires_running(self, diamond):
        q = CondorQueue(diamond)
        with pytest.raises(ValidationError):
            q.fail("a", 0.0)

    def test_hold_and_release(self, diamond):
        q = CondorQueue(diamond)
        q.hold("a", 1.0)
        assert q.state("a") == JobState.HELD
        with pytest.raises(ValidationError):
            q.start("a", 2.0)
        q.release("a", 3.0)
        assert q.state("a") == JobState.IDLE

    def test_held_failed_job(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        q.fail("a", 2.0)
        q.hold("a", 3.0)
        assert q.state("a") == JobState.HELD

    def test_stuck_detection(self, diamond):
        q = CondorQueue(diamond)
        assert not q.stuck
        q.start("a", 0.0)
        q.fail("a", 2.0)
        # Nothing idle or running: the state DAGMan writes a rescue in.
        assert q.stuck
        q.retry("a", 3.0)
        assert not q.stuck


class TestRescue:
    def finish(self, q, job, t):
        q.start(job, t)
        q.finish(job, t + 1.0)

    def test_rescue_records_done_set(self, diamond):
        q = CondorQueue(diamond)
        self.finish(q, "a", 0.0)
        self.finish(q, "b", 2.0)
        assert q.rescue() == frozenset({"a", "b"})

    def test_from_rescue_resumes_where_left_off(self, diamond):
        q = CondorQueue(diamond)
        self.finish(q, "a", 0.0)
        self.finish(q, "b", 2.0)
        resumed = CondorQueue.from_rescue(diamond, q.rescue())
        assert resumed.state("a") == JobState.DONE
        assert resumed.state("b") == JobState.DONE
        assert resumed.state("c") == JobState.IDLE
        assert resumed.state("d") == JobState.UNREADY
        self.finish(resumed, "c", 4.0)
        self.finish(resumed, "d", 6.0)
        assert resumed.all_done

    def test_from_rescue_empty_is_fresh(self, diamond):
        resumed = CondorQueue.from_rescue(diamond, frozenset())
        assert resumed.state("a") == JobState.IDLE
        assert resumed.state("d") == JobState.UNREADY

    def test_from_rescue_rejects_unknown_jobs(self, diamond):
        with pytest.raises(ValidationError):
            CondorQueue.from_rescue(diamond, frozenset({"zz"}))

    def test_from_rescue_rejects_orphan_done(self, diamond):
        # b done without its parent a: not a valid rescue state.
        with pytest.raises(ValidationError):
            CondorQueue.from_rescue(diamond, frozenset({"b"}))

    def test_replay_accepts_censored_runs(self, diamond):
        from types import SimpleNamespace

        rec = lambda tid, s, f: SimpleNamespace(task_id=tid, start=s, finish=f)  # noqa: E731
        q = CondorQueue(diamond)
        q.replay([rec("a", 0.0, 1.0), rec("b", 1.0, 3.0)])
        assert q.rescue() == frozenset({"a", "b"})
        assert not q.all_done

    def test_replay_resumed_run_skips_done_jobs(self, diamond):
        from types import SimpleNamespace

        rec = lambda tid, s, f: SimpleNamespace(task_id=tid, start=s, finish=f)  # noqa: E731
        q = CondorQueue.from_rescue(diamond, frozenset({"a", "b"}))
        q.replay([rec("a", 0.0, 1.0), rec("c", 0.0, 2.0), rec("d", 2.0, 4.0)])
        assert q.all_done
