"""Tests for the Condor/DAGMan-style job queue."""

import pytest

from repro.common.errors import ValidationError
from repro.wms.condor import CondorQueue, JobState


class TestLifecycle:
    def test_initial_states(self, diamond):
        q = CondorQueue(diamond)
        assert q.state("a") == JobState.IDLE
        assert q.state("b") == JobState.UNREADY

    def test_start_finish_releases_children(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        released = q.finish("a", 10.0)
        assert set(released) == {"b", "c"}
        assert q.state("b") == JobState.IDLE

    def test_join_waits_for_all_parents(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        q.finish("a", 1.0)
        q.start("b", 1.0)
        q.start("c", 1.0)
        assert q.finish("b", 5.0) == ()  # c still running
        assert q.state("d") == JobState.UNREADY
        assert q.finish("c", 6.0) == ("d",)

    def test_cannot_start_unready(self, diamond):
        q = CondorQueue(diamond)
        with pytest.raises(ValidationError):
            q.start("d", 0.0)

    def test_cannot_start_twice(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        with pytest.raises(ValidationError):
            q.start("a", 1.0)

    def test_cannot_finish_idle(self, diamond):
        q = CondorQueue(diamond)
        with pytest.raises(ValidationError):
            q.finish("a", 1.0)

    def test_all_done(self, chain3):
        q = CondorQueue(chain3)
        t = 0.0
        for tid in chain3.task_ids:
            q.start(tid, t)
            t += 1.0
            q.finish(tid, t)
        assert q.all_done

    def test_counts(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        counts = q.counts()
        assert counts[JobState.RUNNING] == 1
        assert counts[JobState.UNREADY] == 3

    def test_unknown_job(self, diamond):
        with pytest.raises(ValidationError):
            CondorQueue(diamond).state("zz")


class TestEvents:
    def test_event_log_ordered(self, diamond):
        q = CondorQueue(diamond)
        q.start("a", 0.0)
        q.finish("a", 5.0)
        times = [e.time for e in q.events]
        assert times == sorted(times)

    def test_root_idle_events_at_time_zero(self, diamond):
        q = CondorQueue(diamond)
        roots = [e for e in q.events if e.state == JobState.IDLE]
        assert {e.job_id for e in roots} == {"a"}


class TestReplay:
    def test_replay_simulator_records(self, catalog, runtime_model, diamond):
        from repro.cloud.simulator import CloudSimulator
        from repro.common.rng import RngService

        sim = CloudSimulator(catalog, RngService(1), runtime_model)
        result = sim.execute(diamond, {t: "m1.small" for t in diamond.task_ids})
        q = CondorQueue(diamond)
        q.replay(result.task_records)  # must not raise
        assert q.all_done

    def test_replay_rejects_dependency_violation(self, diamond):
        from repro.cloud.simulator import TaskRecord

        bad = [
            TaskRecord(task_id="d", instance_id=0, instance_type="m1.small",
                       ready=0.0, start=0.0, finish=1.0),
        ]
        with pytest.raises(ValidationError):
            CondorQueue(diamond).replay(bad)

    def test_replay_handles_exact_time_ties(self, chain3):
        from repro.cloud.simulator import TaskRecord

        records = [
            TaskRecord("t0", 0, "m1.small", 0.0, 0.0, 5.0),
            TaskRecord("t1", 0, "m1.small", 5.0, 5.0, 9.0),
            TaskRecord("t2", 0, "m1.small", 9.0, 9.0, 12.0),
        ]
        q = CondorQueue(chain3)
        q.replay(records)
        assert q.all_done
