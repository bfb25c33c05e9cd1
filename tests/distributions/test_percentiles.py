"""The batch-quantile contract and what ``Histogram.from_distribution``
builds on it.

``Distribution.percentiles(qs)`` is a batch *form* of ``percentile``,
not an approximation: every family must return exactly the scalar
results, which is what lets ``from_distribution`` swap 4001 scalar calls
for one vectorised call without moving a single histogram bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.instance_types import ec2_catalog
from repro.common.errors import ValidationError
from repro.distributions import (
    Deterministic,
    Distribution,
    Empirical,
    GammaDistribution,
    Histogram,
    NormalDistribution,
    TruncatedNormal,
    UniformDistribution,
)

param = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)
sigma = st.one_of(st.just(0.0), positive)
# Always exercise the end points: ppf(0) / ppf(1) are the -inf / +inf
# (or support-edge) corners where a vectorised branch could diverge.
quantiles = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=12
).map(lambda qs: [0.0, *qs, 100.0])

families = st.one_of(
    st.builds(Deterministic, param),
    st.builds(NormalDistribution, param, sigma),
    st.builds(TruncatedNormal, param, sigma, st.floats(min_value=-10.0, max_value=10.0)),
    st.builds(GammaDistribution, positive, positive),
    st.builds(lambda lo, width: UniformDistribution(lo, lo + width), param, sigma),
    st.builds(Empirical, st.lists(param, min_size=1, max_size=20)),
    st.builds(
        lambda vs: Histogram(vs, [1.0] * len(vs)),
        st.lists(param.map(lambda x: round(x, 3)), min_size=1, max_size=8, unique=True),
    ),
)


def scalar_loop(dist, qs) -> np.ndarray:
    return np.asarray([dist.percentile(q) for q in qs], dtype=float)


@given(families, quantiles)
def test_batch_equals_scalar_loop_exactly(dist, qs):
    batch = dist.percentiles(qs)
    reference = scalar_loop(dist, qs)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(qs),)
    assert not np.isnan(reference).any()
    assert np.array_equal(batch, reference)


@pytest.mark.parametrize("family", [NormalDistribution, TruncatedNormal])
def test_zero_sigma_is_the_point_mass(family):
    """``sigma == 0`` is accepted by both constructors, so every quantile is
    ``mu`` (``norm.ppf(scale=0)`` is NaN) and the histogram is that point."""
    dist = family(5.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.percentile(0.0) == dist.percentile(50.0) == dist.percentile(100.0) == 5.0
        np.testing.assert_array_equal(dist.percentiles([0.0, 12.5, 100.0]), [5.0, 5.0, 5.0])
        assert Histogram.from_distribution(dist) == Histogram.point(5.0)


ALL_FAMILIES = [
    Deterministic(1.0),
    NormalDistribution(0.0, 1.0),
    TruncatedNormal(1.0, 1.0),
    GammaDistribution(2.0, 1.0),
    UniformDistribution(0.0, 1.0),
    Empirical([1.0, 2.0, 3.0]),
    Histogram([1.0, 2.0], [0.5, 0.5]),
]


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("bad", [-0.001, 100.001, float("nan"), float("inf")])
def test_batch_rejects_out_of_range_and_nan(dist, bad):
    with pytest.raises(ValidationError):
        dist.percentiles([50.0, bad])


def test_default_is_the_scalar_loop():
    """A family that only implements ``percentile`` still gets the batch form."""

    class Ramp(Distribution):
        def sample(self, rng, size=None):
            raise NotImplementedError

        def mean(self):
            return 0.5

        def std(self):
            return 12 ** -0.5

        def percentile(self, q):
            if not 0.0 <= q <= 100.0:
                raise ValidationError("q out of range")
            return q / 100.0

    np.testing.assert_array_equal(Ramp().percentiles([0, 25, 100]), [0.0, 0.25, 1.0])
    with pytest.raises(ValidationError):
        Ramp().percentiles([50, float("nan")])


# from_distribution ------------------------------------------------------


def reference_from_distribution(dist, bins=20, q_lo=0.1, q_hi=99.9) -> Histogram:
    """``from_distribution`` as it was before batch quantiles: 4001 scalar
    ``percentile`` calls.  Kept here as the reference the fast path must
    reproduce bit for bit."""
    lo = dist.percentile(q_lo)
    hi = dist.percentile(q_hi)
    if hi <= lo:
        return Histogram.point(dist.mean())
    edges = np.linspace(lo, hi, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    qs = np.linspace(0.0, 100.0, 4001)
    xs = np.asarray([dist.percentile(q) for q in qs])
    cdf_at_edges = np.interp(edges, xs, qs / 100.0, left=0.0, right=1.0)
    probs = np.diff(cdf_at_edges)
    probs[0] += cdf_at_edges[0]
    probs[-1] += 1.0 - cdf_at_edges[-1]
    return Histogram(centers, probs)


CATALOG_DISTRIBUTIONS = [
    pytest.param(dist, id=f"{itype.name}-{metric}")
    for itype in ec2_catalog()
    for metric, dist in (("seq_io", itype.seq_io), ("network", itype.network))
]


@pytest.mark.parametrize("dist", CATALOG_DISTRIBUTIONS)
def test_catalog_histograms_bit_identical_to_scalar_reference(dist):
    got = Histogram.from_distribution(dist, bins=12)  # RuntimeModel's bin count
    want = reference_from_distribution(dist, bins=12)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.probs, want.probs)


def test_truncated_and_empirical_bit_identical_to_scalar_reference():
    for dist in (TruncatedNormal(5.0, 4.0, lower=1.0), Empirical(np.arange(50.0) ** 1.5)):
        got = Histogram.from_distribution(dist)
        want = reference_from_distribution(dist)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.probs, want.probs)


class TestMemo:
    def test_equal_frozen_distributions_share_one_histogram(self):
        a = Histogram.from_distribution(GammaDistribution(7.5, 1.25), bins=10)
        b = Histogram.from_distribution(GammaDistribution(7.5, 1.25), bins=10)
        assert a is b

    def test_key_includes_bins_and_quantile_range(self):
        dist = NormalDistribution(50.0, 5.0)
        base = Histogram.from_distribution(dist, bins=10)
        finer = Histogram.from_distribution(dist, bins=11)
        wider = Histogram.from_distribution(dist, bins=10, q_lo=1.0, q_hi=99.0)
        assert base is not finer and len(finer) == 11
        assert base is not wider and wider.values[0] > base.values[0]

    def test_family_is_part_of_the_key(self):
        normal = Histogram.from_distribution(NormalDistribution(1.0, 1.0))
        truncated = Histogram.from_distribution(TruncatedNormal(1.0, 1.0, lower=0.5))
        assert normal is not truncated
        assert truncated.values[0] >= 0.5 > normal.values[0]

    def test_empirical_keys_by_identity(self):
        a, b = Empirical([1.0, 2.0, 4.0, 8.0]), Empirical([1.0, 2.0, 4.0, 8.0])
        ha = Histogram.from_distribution(a)
        assert Histogram.from_distribution(a) is ha
        hb = Histogram.from_distribution(b)
        assert hb is not ha and hb == ha

    def test_unhashable_distribution_is_discretized_uncached(self):
        @dataclass  # eq without frozen: instances are unhashable
        class Mutable(Distribution):
            low: float
            high: float

            def sample(self, rng, size=None):
                return rng.uniform(self.low, self.high, size=size)

            def mean(self):
                return (self.low + self.high) / 2.0

            def std(self):
                return (self.high - self.low) / 12 ** 0.5

            def percentile(self, q):
                return self.low + (self.high - self.low) * q / 100.0

        dist = Mutable(0.0, 10.0)
        with pytest.raises(TypeError):
            hash(dist)
        first = Histogram.from_distribution(dist, bins=5)
        assert Histogram.from_distribution(dist, bins=5) is not first
        assert first == Histogram.from_distribution(UniformDistribution(0.0, 10.0), bins=5)
