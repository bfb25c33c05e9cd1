"""Tests for the parametric distribution families."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.distributions import (
    Deterministic,
    Empirical,
    GammaDistribution,
    NormalDistribution,
    TruncatedNormal,
    UniformDistribution,
)


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(4.2)
        assert d.mean() == 4.2
        assert d.std() == 0.0
        assert d.std() ** 2 == 0.0

    def test_sampling(self, rng):
        d = Deterministic(4.2)
        assert d.sample(rng) == 4.2
        np.testing.assert_array_equal(d.sample(rng, 5), np.full(5, 4.2))

    def test_percentiles_constant(self):
        d = Deterministic(4.2)
        assert d.percentile(1) == d.percentile(99) == 4.2

    def test_percentile_range_check(self):
        with pytest.raises(ValidationError):
            Deterministic(1.0).percentile(101)


class TestNormal:
    def test_moments(self):
        d = NormalDistribution(10.0, 2.0)
        assert d.mean() == 10.0
        assert d.std() == 2.0

    def test_median_is_mu(self):
        assert NormalDistribution(10.0, 2.0).percentile(50) == pytest.approx(10.0)

    def test_sample_statistics(self, rng):
        d = NormalDistribution(10.0, 2.0)
        s = d.sample(rng, 50_000)
        assert s.mean() == pytest.approx(10.0, abs=0.05)
        assert s.std() == pytest.approx(2.0, abs=0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            NormalDistribution(1.0, -0.1)

    def test_coefficient_of_variation(self):
        d = NormalDistribution(10.0, 2.0)
        assert d.std() / d.mean() == pytest.approx(0.2)


class TestTruncatedNormal:
    def test_samples_respect_floor(self, rng):
        d = TruncatedNormal(1.0, 5.0, lower=0.5)
        s = d.sample(rng, 10_000)
        assert np.all(s >= 0.5)

    def test_mean_above_untruncated_for_low_mu(self):
        d = TruncatedNormal(0.0, 1.0, lower=0.0)
        assert d.mean() > 0.0

    def test_degenerate_sigma(self, rng):
        d = TruncatedNormal(3.0, 0.0)
        assert d.mean() == 3.0
        assert d.sample(rng) == 3.0
        assert d.percentile(90) == 3.0

    def test_matches_normal_when_truncation_negligible(self, rng):
        trunc = TruncatedNormal(100.0, 5.0, lower=0.0)
        assert trunc.mean() == pytest.approx(100.0, rel=1e-6)
        assert trunc.std() == pytest.approx(5.0, rel=1e-4)


class TestGamma:
    def test_table2_small_parameters(self):
        # m1.small sequential I/O from the paper's Table 2.
        d = GammaDistribution(129.3, 0.79)
        assert d.mean() == pytest.approx(129.3 * 0.79)
        assert d.std() == pytest.approx(np.sqrt(129.3) * 0.79)

    def test_sample_statistics(self, rng):
        d = GammaDistribution(129.3, 0.79)
        s = d.sample(rng, 50_000)
        assert s.mean() == pytest.approx(d.mean(), rel=0.01)
        assert s.std() == pytest.approx(d.std(), rel=0.05)

    def test_samples_positive(self, rng):
        assert np.all(GammaDistribution(2.0, 1.0).sample(rng, 10_000) > 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            GammaDistribution(0.0, 1.0)
        with pytest.raises(ValidationError):
            GammaDistribution(1.0, -1.0)

    def test_percentile_monotone(self):
        d = GammaDistribution(129.3, 0.79)
        qs = [d.percentile(q) for q in (5, 25, 50, 75, 95)]
        assert qs == sorted(qs)


class TestUniform:
    def test_moments(self):
        d = UniformDistribution(2.0, 6.0)
        assert d.mean() == 4.0
        assert d.std() == pytest.approx(4.0 / np.sqrt(12))

    def test_percentile_linear(self):
        d = UniformDistribution(0.0, 10.0)
        assert d.percentile(30) == pytest.approx(3.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValidationError):
            UniformDistribution(5.0, 1.0)


class TestEmpirical:
    def test_moments_match_sample(self):
        data = [1.0, 2.0, 3.0, 4.0]
        d = Empirical(data)
        assert d.mean() == pytest.approx(2.5)
        assert len(d) == 4

    def test_bootstrap_within_support(self, rng):
        d = Empirical([1.0, 2.0, 3.0])
        s = d.sample(rng, 1000)
        assert set(np.unique(s)) <= {1.0, 2.0, 3.0}

    def test_samples_are_readonly_and_sorted(self):
        d = Empirical([3.0, 1.0, 2.0])
        assert list(d.samples) == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            d.samples[0] = 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Empirical([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Empirical([1.0, float("nan")])

    def test_percentile(self):
        d = Empirical(list(range(101)))
        assert d.percentile(50) == pytest.approx(50.0)


class TestSampleInto:
    """``sample_into`` fills a buffer with exactly the draws of ``sample``."""

    @pytest.mark.parametrize("type_name", ["m1.small", "m1.medium", "m1.large", "m1.xlarge"])
    @pytest.mark.parametrize("which", ["seq_io", "network"])
    def test_ec2_families_are_bit_equal_to_sample(self, catalog, type_name, which):
        dist = getattr(catalog.type(type_name), which)
        for shape in [(150, 680), (7,), (1, 1)]:
            want = dist.sample(np.random.default_rng(5), shape)
            out = np.empty(shape)
            dist.sample_into(np.random.default_rng(5), out)
            assert out.tobytes() == want.tobytes()

    def test_default_path_is_bit_equal_to_sample(self):
        dist = UniformDistribution(2.0, 9.0)
        assert type(dist).sample_into is not GammaDistribution.sample_into
        want = dist.sample(np.random.default_rng(5), (40, 3))
        out = np.empty((40, 3))
        dist.sample_into(np.random.default_rng(5), out)
        assert out.tobytes() == want.tobytes()

    def test_stream_advances_alike(self):
        """A second draw after ``sample_into`` matches one after ``sample``."""
        dist = GammaDistribution(129.3, 0.79)
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        dist.sample(a, 100)
        dist.sample_into(b, np.empty(100))
        assert a.random() == b.random()
