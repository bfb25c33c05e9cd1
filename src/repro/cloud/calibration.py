"""Calibration micro-benchmarks.

The paper measures CPU, sequential I/O (hdparm), random I/O (512 B
reads) and network (Iperf) once a minute for 7 days (~10,000 samples per
setting), fits distributions and discretizes them into histograms.
This module reproduces that campaign against the *simulated* cloud: each "measurement" samples the instance's underlying
performance process, exactly the observation a micro-benchmark would
make.  The output regenerates the paper's Table 2 (fitted Gamma/Normal
parameters) and Figs. 6-7 (network traces and histograms): the
distributions the catalog carries, which ``import(cloud)`` reads, are
the ones this campaign recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import CloudError
from repro.common.rng import RngService
from repro.distributions.fitting import FitResult, best_fit, fit_gamma, fit_normal
from repro.distributions.histogram import Histogram
from repro.distributions.parametric import Empirical
from repro.cloud.instance_types import Catalog
from repro.cloud.network import NetworkModel

__all__ = ["CalibrationResult", "Calibrator"]

#: The three dynamic performance components the paper calibrates.
METRICS = ("seq_io", "rand_io", "network")


@dataclass(frozen=True)
class CalibrationResult:
    """Measurements + fit for one (metric, instance type) setting."""

    metric: str
    instance_type: str
    samples: Empirical
    fit: FitResult
    histogram: Histogram

    @property
    def max_relative_variation(self) -> float:
        """(max - min) / mean of the trace -- the paper's "variance up to
        50%" figure for m1.medium network performance."""
        s = self.samples.samples
        return float((s.max() - s.min()) / s.mean())


class Calibrator:
    """Runs the measurement campaign against the simulated cloud."""

    #: Families tried per metric, mirroring the paper's findings
    #: (sequential I/O -> Gamma, random I/O and network -> Normal).
    FAMILIES: dict[str, tuple[str, ...]] = {
        "seq_io": ("gamma", "normal"),
        "rand_io": ("normal", "gamma"),
        "network": ("normal", "gamma"),
    }

    def __init__(self, catalog: Catalog, rngs: RngService | None = None, num_samples: int = 10_000):
        if num_samples < 100:
            raise CloudError(f"calibration needs >= 100 samples, got {num_samples}")
        self.catalog = catalog
        self.rngs = (rngs or RngService(0)).child("calibration")
        self.num_samples = num_samples

    # Single-setting measurements ------------------------------------------

    def measure(self, metric: str, instance_type: str) -> CalibrationResult:
        """Measure one metric on one instance type and fit it.

        Samples come from the catalog's underlying performance process;
        negative draws (possible under the Normal model) are redrawn the
        way a real benchmark would simply never observe them.
        """
        if metric not in METRICS:
            raise CloudError(f"unknown metric {metric!r}; choose from {METRICS}")
        itype = self.catalog.type(instance_type)
        dist = {"seq_io": itype.seq_io, "rand_io": itype.rand_io, "network": itype.network}[metric]
        rng = self.rngs.get(f"{metric}/{instance_type}")
        samples = np.asarray(dist.sample(rng, self.num_samples), dtype=float)
        for _ in range(16):  # redraw the (rare) non-physical negatives
            bad = samples <= 0
            if not bad.any():
                break
            samples[bad] = dist.sample(rng, int(bad.sum()))
        samples = np.abs(samples)
        fit = best_fit(samples, self.FAMILIES[metric])
        return CalibrationResult(
            metric=metric,
            instance_type=instance_type,
            samples=Empirical(samples),
            fit=fit,
            histogram=Histogram.from_samples(samples, bins=20),
        )

    def measure_link(self, type_a: str, type_b: str) -> CalibrationResult:
        """Iperf-style pairwise bandwidth measurement (Fig. 7).

        The link is endpoint-limited, so each sample is the min of the
        two endpoints' draws.
        """
        net = NetworkModel(self.catalog)
        rng = self.rngs.get(f"link/{min(type_a, type_b)}/{max(type_a, type_b)}")
        samples = net.sample_link(type_a, type_b, rng, self.num_samples)
        fit = best_fit(samples, ("normal", "gamma"))
        return CalibrationResult(
            metric="network",
            instance_type=f"{type_a}<->{type_b}",
            samples=Empirical(samples),
            fit=fit,
            histogram=Histogram.from_samples(samples, bins=20),
        )

    def table2(self) -> list[dict[str, object]]:
        """Regenerate the paper's Table 2 rows.

        One row per instance type with the fitted sequential-I/O Gamma
        ``(k, theta)`` and random-I/O Normal ``(mu, sigma)`` parameters.
        """
        rows = []
        for itype in self.catalog:
            seq = self.measure("seq_io", itype.name)
            rand = self.measure("rand_io", itype.name)
            seq_fit = fit_gamma(seq.samples.samples)
            rand_fit = fit_normal(rand.samples.samples)
            rows.append(
                {
                    "instance_type": itype.name,
                    "seq_io_k": seq_fit.distribution.k,
                    "seq_io_theta": seq_fit.distribution.theta,
                    "rand_io_mu": rand_fit.distribution.mu,
                    "rand_io_sigma": rand_fit.distribution.sigma,
                    "seq_io_family": seq.fit.family,
                    "rand_io_family": rand.fit.family,
                }
            )
        return rows
