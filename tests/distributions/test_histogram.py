"""Tests for histogram discretization and arithmetic."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.distributions import GammaDistribution, Histogram, NormalDistribution


class TestConstruction:
    def test_normalizes_probabilities(self):
        h = Histogram([1.0, 2.0], [2.0, 6.0])
        np.testing.assert_allclose(h.probs, [0.25, 0.75])

    def test_sorts_support(self):
        h = Histogram([3.0, 1.0, 2.0], [1, 1, 1])
        np.testing.assert_allclose(h.values, [1.0, 2.0, 3.0])

    def test_merges_duplicate_support(self):
        h = Histogram([1.0, 1.0, 2.0], [1, 1, 2])
        assert len(h) == 2
        np.testing.assert_allclose(h.probs, [0.5, 0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            Histogram([1.0], [0.5, 0.5])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            Histogram([1.0, 2.0], [-0.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Histogram([], [])

    def test_point_mass(self):
        h = Histogram.point(7.0)
        assert h.mean() == 7.0
        assert h.std() == 0.0
        assert len(h) == 1


class TestFromSamples:
    def test_mean_preserved_approximately(self, rng):
        samples = rng.gamma(100, 1.0, size=5000)
        h = Histogram.from_samples(samples, bins=30)
        assert h.mean() == pytest.approx(samples.mean(), rel=0.02)

    def test_bin_count_bounded(self, rng):
        h = Histogram.from_samples(rng.normal(0, 1, 1000), bins=10)
        assert len(h) <= 10

    def test_requires_samples(self):
        with pytest.raises(ValidationError):
            Histogram.from_samples([])


class TestFromDistribution:
    def test_moments_close_to_source(self):
        g = GammaDistribution(129.3, 0.79)
        h = Histogram.from_distribution(g, bins=40)
        assert h.mean() == pytest.approx(g.mean(), rel=0.005)
        assert h.std() == pytest.approx(g.std(), rel=0.1)

    def test_percentiles_close(self):
        n = NormalDistribution(100.0, 10.0)
        h = Histogram.from_distribution(n, bins=40)
        for q in (10, 50, 90):
            assert h.percentile(q) == pytest.approx(n.percentile(q), rel=0.02)

    def test_histogram_passthrough(self):
        h = Histogram([1.0, 2.0], [0.5, 0.5])
        assert Histogram.from_distribution(h) is h

    def test_degenerate_distribution(self):
        from repro.distributions import Deterministic

        h = Histogram.from_distribution(Deterministic(5.0))
        assert len(h) == 1
        assert h.mean() == 5.0


class TestArithmetic:
    def test_sum_mean_is_additive(self):
        a = Histogram([1.0, 3.0], [0.5, 0.5])
        b = Histogram([10.0, 20.0], [0.25, 0.75])
        s = a + b
        assert s.mean() == pytest.approx(a.mean() + b.mean())

    def test_sum_variance_is_additive(self):
        a = Histogram([1.0, 3.0], [0.5, 0.5])
        b = Histogram([10.0, 20.0], [0.25, 0.75])
        s = a + b
        assert s.std() ** 2 == pytest.approx(a.std() ** 2 + b.std() ** 2)

    def test_scalar_shift(self):
        h = Histogram([1.0, 2.0], [0.5, 0.5]) + 10.0
        np.testing.assert_allclose(h.values, [11.0, 12.0])

    def test_cdf(self):
        h = Histogram([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert h.cdf(0.5) == 0.0
        assert h.cdf(2.0) == pytest.approx(0.5)
        assert h.cdf(10.0) == pytest.approx(1.0)


class TestRebinning:
    def test_preserves_mean_exactly(self, rng):
        values = rng.uniform(0, 100, size=200)
        probs = rng.uniform(0.1, 1.0, size=200)
        h = Histogram(values, probs)
        coarse = h.rebinned(16)
        assert len(coarse) <= 16
        assert coarse.mean() == pytest.approx(h.mean(), rel=1e-9)

    def test_noop_when_already_small(self):
        h = Histogram([1.0, 2.0], [0.5, 0.5])
        assert h.rebinned(10) is h

    def test_total_mass_preserved(self, rng):
        h = Histogram(rng.uniform(0, 10, 100), rng.uniform(0, 1, 100))
        assert h.rebinned(8).probs.sum() == pytest.approx(1.0)


class TestSampling:
    def test_samples_on_support(self, rng):
        h = Histogram([1.0, 2.0, 4.0], [0.2, 0.3, 0.5])
        s = h.sample(rng, 2000)
        assert set(np.unique(s)) <= {1.0, 2.0, 4.0}

    def test_sample_frequencies(self, rng):
        h = Histogram([0.0, 1.0], [0.25, 0.75])
        s = h.sample(rng, 40_000)
        assert s.mean() == pytest.approx(0.75, abs=0.01)

    def test_equality_and_hash(self):
        a = Histogram([1.0, 2.0], [0.5, 0.5])
        b = Histogram([1.0, 2.0], [1.0, 1.0])
        assert a == b
        assert hash(a) == hash(b)
