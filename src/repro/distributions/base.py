"""The :class:`Distribution` protocol.

Everything downstream (cloud dynamics, runtime model, probabilistic IR)
talks to distributions through this minimal interface so parametric
families, empirical samples, and discretized histograms are
interchangeable.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Distribution"]


def scipy_stats():
    """``scipy.stats``, imported by the first call that needs it.

    The import costs about a second and 50 MB, and no ``schedule()``,
    compiled ``solve_program()`` or simulator run reaches a quantile
    function, a truncated draw or a fit -- only histograms and the
    calibration analysis do.  Callers use the module and drop it; a
    distribution never stores it, so pickles stay plain values.
    """
    from scipy import stats

    return stats


class Distribution(abc.ABC):
    """A one-dimensional probability distribution.

    Implementations must be immutable; sampling state lives in the
    caller-provided :class:`numpy.random.Generator` (see
    :mod:`repro.common.rng`), never in the distribution object.
    """

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw ``size`` i.i.d. samples (a float when ``size is None``)."""

    def sample_into(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the float64 array ``out`` with i.i.d. samples, in place.

        Contract: bit for bit what ``sample(rng, out.shape)`` returns,
        consuming ``rng`` alike.  This default is that call and a copy;
        families with an ``out=`` draw override it, so a caller that
        reuses one buffer per stream allocates nothing per draw.
        """
        out[...] = self.sample(rng, out.shape)

    @abc.abstractmethod
    def mean(self) -> float:
        """The expectation E[X]."""

    @abc.abstractmethod
    def std(self) -> float:
        """The standard deviation of X."""

    @abc.abstractmethod
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, ``q`` in [0, 100]."""

    def percentiles(self, qs) -> np.ndarray:
        """The percentiles at every ``q`` of ``qs`` as a 1-D float array.

        Contract: element for element *exactly* ``percentile(q)`` -- a
        batch form, not an approximation.  This default is that loop;
        families whose quantile function is a ufunc override it with
        one vectorised call (what makes discretizing a distribution
        cost milliseconds instead of thousands of scalar calls).
        """
        return np.asarray(
            [self.percentile(float(q)) for q in np.asarray(qs, dtype=float).ravel()],
            dtype=float,
        )

