"""Fault injection through the cloud simulator: crashes, spot, stragglers."""

import numpy as np
import pytest

from repro.cloud.simulator import CloudSimulator, InstanceRecord
from repro.common.errors import ExecutionAborted, ValidationError
from repro.common.rng import RngService
from repro.faults import CheckpointModel, FaultModel, RecoveryPolicy, SpotMarket


@pytest.fixture()
def sim(catalog, runtime_model):
    return CloudSimulator(catalog, RngService(11), runtime_model)


def uniform_plan(wf, type_name="m1.small"):
    return {tid: type_name for tid in wf.task_ids}


class TestZeroFaultEquivalence:
    def test_disabled_model_matches_baseline_bitwise(self, sim, diamond):
        plan = uniform_plan(diamond)
        baseline = sim.execute(diamond, plan, run_id=3)
        injected = sim.execute(
            diamond, plan, run_id=3, faults=FaultModel(), recovery=RecoveryPolicy()
        )
        assert injected == baseline


class TestCrashes:
    def test_crashes_lengthen_makespan_but_complete(self, sim, diamond):
        plan = uniform_plan(diamond)
        baseline = sim.execute(diamond, plan, run_id=2)
        crashed = sim.execute(
            diamond,
            plan,
            run_id=2,
            faults=FaultModel(instance_mtbf=200.0),
            recovery=RecoveryPolicy(max_retries=50),
        )
        assert not crashed.aborted
        assert len(crashed.task_records) == len(diamond)
        assert crashed.makespan > baseline.makespan
        assert any(rec.crashed for rec in crashed.instance_records)

    def test_crashed_instances_never_reused(self, sim, diamond):
        result = sim.execute(
            diamond,
            uniform_plan(diamond),
            run_id=2,
            faults=FaultModel(instance_mtbf=200.0),
            recovery=RecoveryPolicy(max_retries=50),
        )
        for rec in result.instance_records:
            if rec.crashed:
                for tid in rec.tasks:
                    task = next(t for t in result.task_records if t.task_id == tid)
                    assert task.finish <= rec.released + 1e-9

    def test_dependencies_hold_under_crashes(self, sim, diamond):
        result = sim.execute(
            diamond,
            uniform_plan(diamond),
            run_id=5,
            faults=FaultModel(instance_mtbf=300.0, task_failure_rate=0.2),
            recovery=RecoveryPolicy(max_retries=50),
        )
        recs = {r.task_id: r for r in result.task_records}
        assert recs["d"].start >= max(recs["b"].finish, recs["c"].finish) - 1e-9

    def test_exhausted_retries_abort_with_context(self, sim, diamond):
        with pytest.raises(ExecutionAborted) as info:
            sim.execute(
                diamond,
                uniform_plan(diamond),
                run_id=0,
                faults=FaultModel(task_failure_rate=0.97),
                recovery=RecoveryPolicy(max_retries=1),
            )
        exc = info.value
        assert exc.task_id in diamond.task_ids
        assert exc.attempts == 2
        assert exc.sim_time > 0.0
        assert exc.partial_result is not None
        assert exc.partial_result.aborted
        assert len(exc.partial_result.task_records) < len(diamond)


class TestBackoffAndFreshResubmit:
    def test_backoff_delays_retries(self, sim, diamond):
        plan = uniform_plan(diamond)
        kwargs = dict(run_id=4, faults=FaultModel(task_failure_rate=0.5))
        quick = sim.execute(
            diamond, plan, recovery=RecoveryPolicy(max_retries=50), **kwargs
        )
        delayed = sim.execute(
            diamond,
            plan,
            recovery=RecoveryPolicy(max_retries=50, backoff_base=100.0),
            **kwargs,
        )
        assert delayed.makespan > quick.makespan

    def test_resubmit_fresh_avoids_failed_instance(self, sim, chain3):
        result = sim.execute(
            chain3,
            uniform_plan(chain3),
            run_id=4,
            faults=FaultModel(task_failure_rate=0.5),
            recovery=RecoveryPolicy(max_retries=50, resubmit_fresh=True),
        )
        retried = [r for r in result.task_records if r.attempts > 1]
        assert retried  # seed chosen so at least one task retries
        assert not result.aborted


class TestStragglers:
    def test_stragglers_lengthen_makespan(self, sim, diamond):
        plan = uniform_plan(diamond)
        baseline = sim.execute(diamond, plan, run_id=6)
        slowed = sim.execute(
            diamond,
            plan,
            run_id=6,
            faults=FaultModel(straggler_rate=0.9, straggler_slowdown=4.0),
        )
        assert slowed.makespan > baseline.makespan
        assert not slowed.aborted


class TestCheckpointing:
    def test_checkpointing_reduces_crash_rework(self, sim, diamond):
        plan = uniform_plan(diamond, "m1.small")
        faults = FaultModel(instance_mtbf=150.0)
        no_cp = RecoveryPolicy(max_retries=200)
        with_cp = RecoveryPolicy(
            max_retries=200, checkpoint=CheckpointModel(interval=10.0, overhead=0.0)
        )
        mean = lambda rec: float(  # noqa: E731
            np.mean(
                [
                    sim.execute(diamond, plan, run_id=r, faults=faults, recovery=rec).makespan
                    for r in range(12)
                ]
            )
        )
        assert mean(with_cp) < mean(no_cp)


class TestSpotExecution:
    def test_spot_instances_flagged_and_billed_from_market(self, sim, diamond):
        result = sim.execute(
            diamond,
            uniform_plan(diamond),
            run_id=1,
            faults=FaultModel(spot=SpotMarket(bid_fraction=1.2)),
            recovery=RecoveryPolicy(max_retries=50),
        )
        assert all(rec.spot for rec in result.instance_records)
        assert np.isfinite(result.cost)

    def test_low_bid_gets_revoked(self, sim, diamond):
        revoked = []
        for run_id in range(8):
            result = sim.execute(
                diamond,
                uniform_plan(diamond, "m1.large"),
                run_id=run_id,
                faults=FaultModel(spot=SpotMarket(bid_fraction=0.25)),
                recovery=RecoveryPolicy(max_retries=500),
            )
            revoked.extend(r for r in result.instance_records if r.revoked)
        assert revoked
        assert all(r.spot and not r.crashed for r in revoked)

    def test_revoked_partial_hour_is_free(self, sim):
        prices = np.array([0.1, 0.2, 0.3, 0.4])
        rec = InstanceRecord(0, "m1.small", "us-east", acquired=0.0, released=2.5 * 3600)
        rec.spot = True
        rec.revoked = True
        assert sim._instance_cost(rec, prices, "us-east") == pytest.approx(0.1 + 0.2)

    def test_user_released_pays_started_hour(self, sim):
        prices = np.array([0.1, 0.2, 0.3, 0.4])
        rec = InstanceRecord(0, "m1.small", "us-east", acquired=0.0, released=2.5 * 3600)
        rec.spot = True
        assert sim._instance_cost(rec, prices, "us-east") == pytest.approx(0.1 + 0.2 + 0.3)

    def test_billed_hours_property_floors_when_revoked(self):
        rec = InstanceRecord(0, "m1.small", "us-east", acquired=0.0, released=2.5 * 3600)
        rec.revoked = True
        assert rec.billed_hours == 2
        rec.revoked = False
        assert rec.billed_hours == 3


class TestOnAbort:
    @pytest.fixture()
    def aborting(self):
        # ~32% of runs complete (0.75**4 per-run success): seeds 0-11
        # produce both censored and completed outcomes.
        return dict(
            faults=FaultModel(task_failure_rate=0.5),
            recovery=RecoveryPolicy(max_retries=1),
        )

    def test_raise_propagates(self, sim, diamond, aborting):
        with pytest.raises(ExecutionAborted):
            sim.run_many(diamond, uniform_plan(diamond), 12, on_abort="raise", **aborting)

    def test_skip_drops_aborted_runs(self, sim, diamond, aborting):
        results = sim.run_many(
            diamond, uniform_plan(diamond), 12, on_abort="skip", **aborting
        )
        assert len(results) < 12
        assert all(not r.aborted for r in results)

    def test_record_keeps_censored_runs(self, sim, diamond, aborting):
        results = sim.run_many(
            diamond, uniform_plan(diamond), 12, on_abort="record", **aborting
        )
        assert len(results) == 12
        aborted = [r for r in results if r.aborted]
        assert aborted
        assert all(not r.meets_deadline(1e12) for r in aborted)
        summary = sim.summarize(results)
        assert summary["num_aborted"] == len(aborted)

    def test_invalid_mode_rejected(self, sim, diamond):
        with pytest.raises(ValidationError):
            sim.run_many(diamond, uniform_plan(diamond), 2, on_abort="explode")
