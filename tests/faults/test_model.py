"""Tests for the declarative FaultModel and the spot-market hookup."""

import math

import numpy as np
import pytest

from repro.cloud.spot import SpotPriceProcess
from repro.common.errors import ValidationError
from repro.faults import CheckpointModel, FaultModel, RecoveryPolicy, SpotMarket


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(task_failure_rate=-0.1), dict(task_failure_rate=1.0),
        dict(instance_mtbf=0.0), dict(instance_mtbf=-5.0),
        dict(straggler_rate=1.0), dict(straggler_slowdown=0.5),
    ])
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            FaultModel(**kwargs)

    def test_spot_market_validation(self):
        with pytest.raises(ValidationError):
            SpotMarket(bid_fraction=0.0)
        with pytest.raises(ValidationError):
            SpotMarket(horizon_hours=0)


class TestClassification:
    def test_default_is_disabled(self):
        assert not FaultModel().enabled

    @pytest.mark.parametrize("kwargs", [
        dict(task_failure_rate=0.1), dict(instance_mtbf=1000.0),
        dict(straggler_rate=0.2), dict(spot=SpotMarket()),
    ])
    def test_any_source_enables(self, kwargs):
        assert FaultModel(**kwargs).enabled

    def test_describe_is_json_ready(self):
        import json

        assert json.dumps(FaultModel(task_failure_rate=0.1).describe())


class TestDraws:
    def test_disabled_knobs_consume_no_randomness(self):
        fm = FaultModel()
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert fm.attempt_fails(rng) is False
        assert fm.straggler_factor(rng) == 1.0
        assert fm.crash_time(0.0, rng) == math.inf
        assert rng.bit_generator.state == before

    def test_attempt_fails_tracks_rate(self):
        fm = FaultModel(task_failure_rate=0.3)
        rng = np.random.default_rng(5)
        freq = np.mean([fm.attempt_fails(rng) for _ in range(20_000)])
        assert freq == pytest.approx(0.3, abs=0.02)

    def test_straggler_factor_values(self):
        fm = FaultModel(straggler_rate=0.5, straggler_slowdown=3.0)
        rng = np.random.default_rng(5)
        factors = {fm.straggler_factor(rng) for _ in range(200)}
        assert factors == {1.0, 3.0}

    def test_crash_time_mean_is_mtbf(self):
        fm = FaultModel(instance_mtbf=500.0)
        rng = np.random.default_rng(5)
        times = [fm.crash_time(100.0, rng) - 100.0 for _ in range(20_000)]
        assert np.mean(times) == pytest.approx(500.0, rel=0.05)
        assert min(times) >= 0.0


class TestInflate:
    def test_no_faults_is_identity(self):
        t = np.array([10.0, 20.0, 30.0])
        out = FaultModel().inflate(t, RecoveryPolicy())
        np.testing.assert_allclose(out, t)

    def test_transient_rate_matches_expected_attempts(self):
        fm = FaultModel(task_failure_rate=0.2)
        policy = RecoveryPolicy(max_retries=3)
        t = np.array([100.0])
        out = fm.inflate(t, policy)
        assert out[0] == pytest.approx(100.0 * policy.expected_attempts(0.2))

    def test_straggler_expectation(self):
        fm = FaultModel(straggler_rate=0.1, straggler_slowdown=3.0)
        out = fm.inflate(np.array([100.0]), RecoveryPolicy())
        assert out[0] == pytest.approx(100.0 * 1.2)

    def test_checkpoint_overhead_factor(self):
        policy = RecoveryPolicy(checkpoint=CheckpointModel(interval=100.0, overhead=10.0))
        out = FaultModel(task_failure_rate=0.0).inflate(np.array([50.0]), policy)
        assert out[0] == pytest.approx(55.0)

    def test_crashes_inflate_more_for_longer_tasks(self):
        fm = FaultModel(instance_mtbf=3600.0)
        t = np.array([10.0, 1000.0])
        out = fm.inflate(t, RecoveryPolicy())
        assert np.all(out > t)
        assert out[1] / t[1] > out[0] / t[0]

    def test_spot_hazard_inflates(self):
        fm = FaultModel(spot=SpotMarket(bid_fraction=0.3))
        out = fm.inflate(np.array([1000.0]), RecoveryPolicy())
        assert out[0] > 1000.0

    def test_never_shrinks_and_preserves_input(self):
        fm = FaultModel(task_failure_rate=0.3, instance_mtbf=1e4, straggler_rate=0.2)
        t = np.linspace(1.0, 500.0, 40)
        snapshot = t.copy()
        out = fm.inflate(t, RecoveryPolicy(checkpoint=CheckpointModel(60.0, 2.0, 3.0)))
        assert np.all(out >= t)
        np.testing.assert_array_equal(t, snapshot)


class TestPlanSuccess:
    def test_power_of_task_success(self):
        fm = FaultModel(task_failure_rate=0.5)
        policy = RecoveryPolicy(max_retries=1)
        per_task = 1.0 - 0.5**2
        assert fm.plan_success_probability(4, policy) == pytest.approx(per_task**4)

    def test_zero_tasks_always_succeeds(self):
        assert FaultModel(task_failure_rate=0.9).plan_success_probability(
            0, RecoveryPolicy()
        ) == 1.0

    def test_negative_tasks_rejected(self):
        with pytest.raises(ValidationError):
            FaultModel().plan_success_probability(-1, RecoveryPolicy())


class TestSpotMarket:
    def test_revocation_hour_first_exceedance(self):
        prices = np.array([0.2, 0.3, 0.9, 0.1, 0.95])
        assert SpotMarket.revocation_hour(prices, bid=0.5) == 2
        assert SpotMarket.revocation_hour(prices, bid=1.0) is None

    def test_bid_scales_on_demand(self, catalog):
        market = SpotMarket(bid_fraction=0.5)
        proc = market.process_for(catalog, "m1.large")
        assert market.bid(proc) == pytest.approx(0.5 * proc.on_demand)

    def test_revocation_probability_bounds_and_monotonicity(self):
        proc = SpotPriceProcess(on_demand=1.0)
        probs = [
            SpotMarket(bid_fraction=f).revocation_probability_per_hour(proc)
            for f in (0.2, 0.35, 0.6, 1.0, 1.6)
        ]
        assert all(0.0 <= p <= 1.0 for p in probs)
        # Higher bids are revoked less often.
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_revocation_probability_matches_simulation(self):
        proc = SpotPriceProcess(on_demand=1.0)
        market = SpotMarket(bid_fraction=0.4)
        rng = np.random.default_rng(11)
        prices = proc.simulate(200_000, rng)
        empirical = float(np.mean(prices > market.bid(proc)))
        analytic = market.revocation_probability_per_hour(proc)
        # The analytic form ignores the [floor, cap] clamping; stay loose.
        assert analytic == pytest.approx(empirical, abs=0.05)
