"""Property-based tests (hypothesis) for histogram invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Histogram

# Values are drawn on a coarse grid (3 decimals) so support points are
# either identical or separated by much more than the constructor's
# numerical merge tolerance -- sub-tolerance spacing is a representation
# artifact, not a distribution property.
finite_value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False).map(
    lambda x: round(x, 3)
)
prob_weight = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def histograms(draw, max_bins: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_bins))
    values = draw(
        st.lists(finite_value, min_size=n, max_size=n, unique=True)
    )
    probs = draw(st.lists(prob_weight, min_size=n, max_size=n))
    return Histogram(values, probs)


@given(histograms())
def test_probabilities_normalized(h):
    assert np.isclose(h.probs.sum(), 1.0)


@given(histograms())
def test_support_strictly_increasing(h):
    assert np.all(np.diff(h.values) > 0) or len(h) == 1


@given(histograms())
def test_mean_within_support(h):
    assert h.values[0] - 1e-9 <= h.mean() <= h.values[-1] + 1e-9


@given(histograms())
def test_percentiles_monotone(h):
    qs = [h.percentile(q) for q in (0, 10, 25, 50, 75, 90, 100)]
    assert qs == sorted(qs)


@given(histograms(), histograms())
def test_sum_mean_additive(a, b):
    s = a + b
    assert np.isclose(s.mean(), a.mean() + b.mean(), rtol=1e-9, atol=1e-6)


@given(histograms(), histograms())
def test_sum_variance_additive(a, b):
    s = a + b
    assert np.isclose(s.variance(), a.variance() + b.variance(), rtol=1e-6, atol=1e-3)


@given(histograms(max_bins=30), st.integers(min_value=1, max_value=8))
def test_rebinning_preserves_mean_and_mass(h, bins):
    coarse = h.rebinned(bins)
    assert len(coarse) <= max(bins, len(h) if len(h) <= bins else bins)
    assert np.isclose(coarse.probs.sum(), 1.0)
    assert np.isclose(coarse.mean(), h.mean(), rtol=1e-9, atol=1e-6)


@given(histograms(), st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_shift_moves_mean(h, delta):
    assert np.isclose(h.shift(delta).mean(), h.mean() + delta, rtol=1e-9, atol=1e-6)


@given(histograms())
@settings(max_examples=30)
def test_sampling_stays_on_support(h):
    rng = np.random.default_rng(0)
    s = h.sample(rng, 100)
    assert np.all(np.isin(s, h.values))
