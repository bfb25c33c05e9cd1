"""Discretized distributions (histograms) and their arithmetic.

The paper stores calibrated performance distributions as histograms in
the metadata store; each histogram bin becomes one probabilistic fact of
the WLog intermediate representation (``p_j : exetime(Tid, Vid, T_j)``).
Propagating task-time histograms through a DAG needs two operations:

* ``a + b`` -- distribution of the *sum* of two independent quantities
  (sequential tasks on a path): a discrete convolution;
* ``Histogram.maximum(a, b)`` -- distribution of the *max* (joining
  branches): the product-of-CDFs rule.

Both are exact on the discretized support (up to re-binning), which is
what makes histogram propagation a useful analytic cross-check of the
Monte Carlo evaluator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.distributions.base import Distribution

__all__ = ["Histogram"]

_MERGE_TOL = 1e-9


class Histogram(Distribution):
    """A finite discrete distribution: support ``values`` with ``probs``.

    ``values`` are bin centers (strictly increasing); ``probs`` are
    non-negative and sum to 1.  This is the "histogram" of the paper --
    we keep bin centers rather than edges because the probabilistic IR
    instantiates one fact per (value, probability) pair.
    """

    __slots__ = ("_values", "_probs")

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        v = np.asarray(values, dtype=float).ravel()
        p = np.asarray(probs, dtype=float).ravel()
        if v.size == 0:
            raise ValidationError("histogram needs at least one bin")
        if v.size != p.size:
            raise ValidationError(f"values/probs length mismatch: {v.size} != {p.size}")
        if not np.all(np.isfinite(v)) or not np.all(np.isfinite(p)):
            raise ValidationError("histogram entries must be finite")
        if np.any(p < -_MERGE_TOL):
            raise ValidationError("probabilities must be non-negative")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if total <= 0:
            raise ValidationError("probabilities must not all be zero")
        p = p / total
        order = np.argsort(v, kind="stable")
        v, p = v[order], p[order]
        # Merge (numerically) duplicate support points; merged bins take the
        # mass-weighted center so the mean is preserved exactly.
        keep_v: list[float] = []
        keep_p: list[float] = []
        for vi, pi in zip(v, p):
            if keep_v and abs(vi - keep_v[-1]) <= _MERGE_TOL * max(1.0, abs(vi)):
                total_p = keep_p[-1] + pi
                keep_v[-1] = (keep_v[-1] * keep_p[-1] + vi * pi) / total_p
                keep_p[-1] = total_p
            else:
                keep_v.append(float(vi))
                keep_p.append(float(pi))
        self._values = np.asarray(keep_v)
        self._probs = np.asarray(keep_p)
        self._values.setflags(write=False)
        self._probs.setflags(write=False)

    # Constructors ------------------------------------------------------

    @classmethod
    def point(cls, value: float) -> "Histogram":
        """A point mass (deterministic value) as a 1-bin histogram."""
        return cls([value], [1.0])

    @classmethod
    def from_samples(cls, samples: Iterable[float], bins: int = 20) -> "Histogram":
        """Discretize raw samples into ``bins`` equal-width bins.

        This is the calibration step: measurements -> histogram metadata.
        """
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValidationError("no samples to discretize")
        if bins < 1:
            raise ValidationError(f"bins must be >= 1, got {bins}")
        counts, edges = np.histogram(arr, bins=bins)
        centers = (edges[:-1] + edges[1:]) / 2.0
        mask = counts > 0
        return cls(centers[mask], counts[mask].astype(float))

    @classmethod
    def from_distribution(
        cls,
        dist: Distribution,
        bins: int = 20,
        q_lo: float = 0.1,
        q_hi: float = 99.9,
    ) -> "Histogram":
        """Discretize a continuous distribution over its central mass.

        Bin centers are evenly spaced between the ``q_lo`` and ``q_hi``
        percentiles; bin probabilities come from percentile inversion on
        a dense grid, which avoids needing an explicit pdf.

        Results are memoised per process by ``(dist, bins, q_lo, q_hi)``:
        the parametric families are frozen dataclasses and key by value,
        :class:`~repro.distributions.parametric.Empirical` keys by
        identity.  Histograms are immutable, so equal requests share one
        object; an unhashable distribution is discretized every time.
        """
        if isinstance(dist, Histogram):
            return dist
        try:
            hash(dist)
        except TypeError:
            return _discretize.__wrapped__(dist, bins, q_lo, q_hi)
        return _discretize(dist, bins, q_lo, q_hi)

    # Distribution protocol ---------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def __len__(self) -> int:
        return int(self._values.size)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        idx = rng.choice(self._values.size, size=1 if size is None else size, p=self._probs)
        out = self._values[idx]
        return float(out[0]) if size is None else out

    def mean(self) -> float:
        return float(np.dot(self._values, self._probs))

    def std(self) -> float:
        m = self.mean()
        return float(np.sqrt(np.dot((self._values - m) ** 2, self._probs)))

    def percentile(self, q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValidationError(f"percentile must be in [0, 100], got {q}")
        cdf = np.cumsum(self._probs)
        idx = int(np.searchsorted(cdf, q / 100.0, side="left"))
        idx = min(idx, self._values.size - 1)
        return float(self._values[idx])

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        return float(self._probs[self._values <= x].sum())

    # Arithmetic --------------------------------------------------------

    def rebinned(self, max_bins: int) -> "Histogram":
        """Coarsen to at most ``max_bins`` bins (keeps total mass).

        Sums of histograms grow multiplicatively in support size; the
        propagation code calls this after every operation to keep the
        representation bounded, exactly as a fixed-width GPU buffer would.
        """
        if len(self) <= max_bins:
            return self
        lo, hi = self._values[0], self._values[-1]
        edges = np.linspace(lo, hi, max_bins + 1)
        idx = np.clip(np.searchsorted(edges, self._values, side="right") - 1, 0, max_bins - 1)
        probs = np.bincount(idx, weights=self._probs, minlength=max_bins)
        # Mass-weighted bin centers preserve the mean exactly.
        sums = np.bincount(idx, weights=self._probs * self._values, minlength=max_bins)
        mask = probs > 0
        centers = sums[mask] / probs[mask]
        return Histogram(centers, probs[mask])

    def __add__(self, other) -> "Histogram":
        """Distribution of X + Y for independent X, Y (convolution)."""
        if isinstance(other, (int, float)):
            return self.shift(float(other))
        if not isinstance(other, Histogram):
            return NotImplemented
        vv = self._values[:, None] + other._values[None, :]
        pp = self._probs[:, None] * other._probs[None, :]
        return Histogram(vv.ravel(), pp.ravel())

    __radd__ = __add__

    def shift(self, delta: float) -> "Histogram":
        """Distribution of X + delta."""
        return Histogram(self._values + delta, self._probs)

    def scale(self, factor: float) -> "Histogram":
        """Distribution of factor * X (factor > 0)."""
        if factor <= 0:
            raise ValidationError(f"scale factor must be > 0, got {factor}")
        return Histogram(self._values * factor, self._probs)

    @staticmethod
    def maximum(a: "Histogram", b: "Histogram") -> "Histogram":
        """Distribution of max(X, Y) for independent X, Y.

        P(max <= v) = P(X <= v) * P(Y <= v); differencing the product CDF
        on the merged support yields the pmf.
        """
        support = np.union1d(a._values, b._values)
        cdf_a = np.cumsum(a._probs)
        cdf_b = np.cumsum(b._probs)
        ia = np.searchsorted(a._values, support, side="right") - 1
        ib = np.searchsorted(b._values, support, side="right") - 1
        fa = np.where(ia >= 0, cdf_a[np.clip(ia, 0, None)], 0.0)
        fb = np.where(ib >= 0, cdf_b[np.clip(ib, 0, None)], 0.0)
        prod = fa * fb
        pmf = np.diff(np.concatenate([[0.0], prod]))
        mask = pmf > 0
        if not mask.any():  # numerical corner: all mass collapsed
            return Histogram.point(float(support[-1]))
        return Histogram(support[mask], pmf[mask])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self._values.size == other._values.size
            and np.allclose(self._values, other._values)
            and np.allclose(self._probs, other._probs)
        )

    def __hash__(self):
        return hash((self._values.tobytes(), self._probs.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram(bins={len(self)}, mean={self.mean():.4g}, std={self.std():.4g})"


@lru_cache(maxsize=256)
def _discretize(dist: Distribution, bins: int, q_lo: float, q_hi: float) -> Histogram:
    """The work behind :meth:`Histogram.from_distribution`, one call per key."""
    lo = dist.percentile(q_lo)
    hi = dist.percentile(q_hi)
    if hi <= lo:  # degenerate (zero-variance) distribution
        return Histogram.point(dist.mean())
    edges = np.linspace(lo, hi, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    # CDF by inverting the quantile function: one batch of quantiles on a
    # fine grid, interpolated at the bin edges.
    qs = np.linspace(0.0, 100.0, 4001)
    cdf_at_edges = np.interp(edges, dist.percentiles(qs), qs / 100.0, left=0.0, right=1.0)
    probs = np.diff(cdf_at_edges)
    probs[0] += cdf_at_edges[0]        # tail mass below the first edge
    probs[-1] += 1.0 - cdf_at_edges[-1]  # tail mass above the last edge
    return Histogram(centers, probs)
