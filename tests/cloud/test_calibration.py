"""Tests for the calibration micro-benchmarks (Table 2, Figs. 6-7)."""

import pytest

from repro.cloud.calibration import Calibrator
from repro.common.errors import CloudError
from repro.common.rng import RngService


@pytest.fixture(scope="module")
def calibrator(catalog):
    return Calibrator(catalog, RngService(42), num_samples=3000)


class TestMeasure:
    def test_seq_io_recovers_gamma(self, calibrator, catalog):
        result = calibrator.measure("seq_io", "m1.small")
        assert result.fit.family == "gamma"
        truth = catalog.type("m1.small").seq_io
        assert result.samples.mean() == pytest.approx(truth.mean(), rel=0.03)

    def test_rand_io_recovers_normal(self, calibrator, catalog):
        result = calibrator.measure("rand_io", "m1.medium")
        assert result.fit.family == "normal"
        assert result.fit.distribution.mu == pytest.approx(128.9, rel=0.03)

    def test_network_fits_normal(self, calibrator):
        """Fig. 6b: network performance is well modeled by a Normal."""
        result = calibrator.measure("network", "m1.medium")
        assert result.fit.family == "normal"
        assert result.fit.accepted()

    def test_network_variation_substantial(self, calibrator):
        """Fig. 6a: m1.medium network performance varies a lot."""
        result = calibrator.measure("network", "m1.medium")
        assert result.max_relative_variation > 0.5

    def test_samples_positive(self, calibrator):
        result = calibrator.measure("network", "m1.small")
        assert result.samples.samples.min() > 0

    def test_unknown_metric_rejected(self, calibrator):
        with pytest.raises(CloudError):
            calibrator.measure("gpu_flops", "m1.small")

    def test_measurement_reproducible(self, catalog):
        a = Calibrator(catalog, RngService(5), num_samples=500).measure("seq_io", "m1.large")
        b = Calibrator(catalog, RngService(5), num_samples=500).measure("seq_io", "m1.large")
        assert a.samples.mean() == b.samples.mean()


class TestMeasureLink:
    def test_fig7_ordering(self, calibrator):
        ll = calibrator.measure_link("m1.large", "m1.large")
        ml = calibrator.measure_link("m1.medium", "m1.large")
        assert ll.samples.mean() > ml.samples.mean()
        assert ll.samples.std() < ml.samples.std()


class TestRunAndTable2:
    def test_table2_recovers_ground_truth(self, catalog):
        cal = Calibrator(catalog, RngService(42), num_samples=6000)
        rows = cal.table2()
        truth = {
            "m1.small": (129.3, 150.3, 50.0),
            "m1.medium": (127.1, 128.9, 8.4),
            "m1.large": (376.6, 172.9, 34.8),
            "m1.xlarge": (408.1, 1034.0, 146.4),
        }
        for row in rows:
            k, mu, sigma = truth[row["instance_type"]]
            assert row["seq_io_k"] == pytest.approx(k, rel=0.15)
            assert row["rand_io_mu"] == pytest.approx(mu, rel=0.03)
            assert row["rand_io_sigma"] == pytest.approx(sigma, rel=0.15)
            assert row["seq_io_family"] == "gamma"
            assert row["rand_io_family"] == "normal"

    def test_minimum_samples_enforced(self, catalog):
        with pytest.raises(CloudError):
            Calibrator(catalog, num_samples=10)
