"""Parametric distribution families used by the calibration model.

The paper's Table 2 models sequential I/O bandwidth with Gamma(k, theta)
and random I/O / network bandwidth with Normal(mu, sigma).  Performance
quantities are physically non-negative, so the Normal family here is
complemented by :class:`TruncatedNormal` for simulation use, while plain
:class:`NormalDistribution` keeps the exact moments the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.distributions.base import Distribution, scipy_stats

__all__ = [
    "Deterministic",
    "NormalDistribution",
    "TruncatedNormal",
    "GammaDistribution",
    "UniformDistribution",
    "Empirical",
]


@dataclass(frozen=True)
class Deterministic(Distribution):
    """A point mass at ``value`` -- the degenerate case used when the
    engine runs in deterministic mode (follow-the-cost use case)."""

    value: float

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return float(self.value)
        return np.full(size, self.value, dtype=float)

    def mean(self) -> float:
        return float(self.value)

    def std(self) -> float:
        return 0.0

    def percentile(self, q: float) -> float:
        _check_q(q)
        return float(self.value)

    def percentiles(self, qs) -> np.ndarray:
        return np.full(_check_qs(qs).size, self.value, dtype=float)


@dataclass(frozen=True)
class NormalDistribution(Distribution):
    """Normal(mu, sigma); the paper's model for random I/O and network."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.normal(self.mu, self.sigma, size=size)

    def mean(self) -> float:
        return float(self.mu)

    def std(self) -> float:
        return float(self.sigma)

    def percentile(self, q: float) -> float:
        _check_q(q)
        if self.sigma == 0:
            return float(self.mu)  # point mass: norm.ppf(scale=0) is NaN
        return float(scipy_stats().norm.ppf(q / 100.0, loc=self.mu, scale=self.sigma))

    def percentiles(self, qs) -> np.ndarray:
        qs = _check_qs(qs)
        if self.sigma == 0:
            return np.full(qs.size, self.mu, dtype=float)
        return scipy_stats().norm.ppf(qs / 100.0, loc=self.mu, scale=self.sigma)


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal(mu, sigma) truncated to [lower, +inf).

    Used by the cloud simulator for bandwidths: the calibration tables
    are Normal, but a sampled bandwidth must stay positive.  ``lower``
    defaults to a small positive floor rather than 0 so downstream
    divisions (time = bytes / bandwidth) are safe.
    """

    mu: float
    sigma: float
    lower: float = 1e-9

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def _frozen(self):
        if self.sigma == 0:
            return None
        a = (self.lower - self.mu) / self.sigma
        return scipy_stats().truncnorm(a, np.inf, loc=self.mu, scale=self.sigma)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if self.sigma == 0:
            value = max(self.mu, self.lower)
            return value if size is None else np.full(size, value)
        frozen = self._frozen
        out = frozen.rvs(size=1 if size is None else size, random_state=rng)
        return float(out[0]) if size is None else out

    def mean(self) -> float:
        if self.sigma == 0:
            return max(self.mu, self.lower)
        return float(self._frozen.mean())

    def std(self) -> float:
        if self.sigma == 0:
            return 0.0
        return float(self._frozen.std())

    def percentile(self, q: float) -> float:
        _check_q(q)
        if self.sigma == 0:
            return max(self.mu, self.lower)
        return float(self._frozen.ppf(q / 100.0))

    def percentiles(self, qs) -> np.ndarray:
        qs = _check_qs(qs)
        if self.sigma == 0:
            return np.full(qs.size, max(self.mu, self.lower), dtype=float)
        return self._frozen.ppf(qs / 100.0)


@dataclass(frozen=True)
class GammaDistribution(Distribution):
    """Gamma with shape ``k`` and scale ``theta`` (paper's seq-I/O model).

    Mean = k * theta, Var = k * theta^2, matching Table 2's
    parameterization (e.g. m1.small: k = 129.3, theta = 0.79).
    """

    k: float
    theta: float

    def __post_init__(self):
        if self.k <= 0 or self.theta <= 0:
            raise ValidationError(f"k and theta must be > 0, got k={self.k}, theta={self.theta}")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.gamma(self.k, self.theta, size=size)

    def mean(self) -> float:
        return float(self.k * self.theta)

    def std(self) -> float:
        return float(np.sqrt(self.k) * self.theta)

    def percentile(self, q: float) -> float:
        _check_q(q)
        return float(scipy_stats().gamma.ppf(q / 100.0, a=self.k, scale=self.theta))

    def percentiles(self, qs) -> np.ndarray:
        return scipy_stats().gamma.ppf(_check_qs(qs) / 100.0, a=self.k, scale=self.theta)


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if self.high < self.low:
            raise ValidationError(f"high < low: [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.uniform(self.low, self.high, size=size)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def std(self) -> float:
        return (self.high - self.low) / np.sqrt(12.0)

    def percentile(self, q: float) -> float:
        _check_q(q)
        return self.low + (self.high - self.low) * q / 100.0

    def percentiles(self, qs) -> np.ndarray:
        return self.low + (self.high - self.low) * _check_qs(qs) / 100.0


class Empirical(Distribution):
    """The empirical distribution of a sample (calibration raw data).

    Sampling is bootstrap resampling; percentiles use the linear
    interpolation convention of :func:`numpy.percentile`.
    """

    def __init__(self, samples):
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size == 0:
            raise ValidationError("Empirical distribution needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Empirical samples must be finite")
        self._samples = np.sort(arr)
        self._samples.setflags(write=False)

    @property
    def samples(self) -> np.ndarray:
        """The (sorted, read-only) underlying sample."""
        return self._samples

    def __len__(self) -> int:
        return int(self._samples.size)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        out = rng.choice(self._samples, size=1 if size is None else size, replace=True)
        return float(out[0]) if size is None else out

    def mean(self) -> float:
        return float(self._samples.mean())

    def std(self) -> float:
        return float(self._samples.std())

    def percentile(self, q: float) -> float:
        _check_q(q)
        return float(np.percentile(self._samples, q))

    def percentiles(self, qs) -> np.ndarray:
        return np.percentile(self._samples, _check_qs(qs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Empirical(n={len(self)}, mean={self.mean():.4g}, std={self.std():.4g})"


def _check_q(q: float) -> None:
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile must be in [0, 100], got {q}")


def _check_qs(qs) -> np.ndarray:
    """``qs`` as a validated 1-D float array (NaN fails the range test)."""
    arr = np.asarray(qs, dtype=float).ravel()
    if not np.all((arr >= 0.0) & (arr <= 100.0)):
        raise ValidationError(f"percentiles must all be in [0, 100], got {qs!r}")
    return arr
