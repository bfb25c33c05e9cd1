"""Pairwise network bandwidth model.

The paper measures bandwidth between every pair of instance types with
Iperf (Fig. 7: the m1.large <-> m1.large link is faster and tighter than
m1.medium <-> m1.large).  We model a link as being limited by its slower
endpoint: the link distribution between types A and B is A's network
distribution "min-combined" with B's.  For sampling this is the exact
elementwise minimum; for the analytic distribution we approximate with
the smaller-mean endpoint's distribution, which reproduces Fig. 7's
ordering.

Cross-region links (``Band_mn`` in Eq. 10) are modeled with a dedicated,
slower WAN distribution.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.distributions.base import Distribution
from repro.distributions.parametric import NormalDistribution
from repro.cloud.instance_types import Catalog, MB_PER_S

__all__ = ["NetworkModel"]


class NetworkModel:
    """Bandwidth lookups/sampling between instances and regions."""

    #: Default WAN link between two regions: ~25 MB/s with high variance
    #: (trans-Pacific link between the paper's US East and Singapore).
    DEFAULT_WAN = NormalDistribution(25.0 * MB_PER_S, 8.0 * MB_PER_S)

    def __init__(self, catalog: Catalog, wan: Distribution | None = None):
        self.catalog = catalog
        self.wan = wan or self.DEFAULT_WAN

    def link_distribution(self, type_a: str, type_b: str) -> Distribution:
        """Analytic intra-region link model: the slower endpoint dominates."""
        a = self.catalog.type(type_a)
        b = self.catalog.type(type_b)
        return a.network if a.network.mean() <= b.network.mean() else b.network

    def sample_link(
        self,
        type_a: str,
        type_b: str,
        rng: np.random.Generator,
        size: int | None = None,
    ):
        """Sample intra-region link bandwidth: elementwise min of endpoints."""
        a = self.catalog.type(type_a).network.sample(rng, size)
        b = self.catalog.type(type_b).network.sample(rng, size)
        out = np.minimum(a, b)
        out = np.maximum(out, 1e3)  # floor: a link is never fully dead
        return float(out) if size is None else out

    def cross_region_distribution(self, region_a: str, region_b: str) -> Distribution:
        """Link model between two regions (the WAN for distinct regions)."""
        self.catalog.region(region_a)
        self.catalog.region(region_b)
        if region_a == region_b:
            raise ValidationError(
                "cross_region_distribution called with identical regions; "
                "use link_distribution for intra-region links"
            )
        return self.wan

    def sample_cross_region(
        self, region_a: str, region_b: str, rng: np.random.Generator, size: int | None = None
    ):
        """Sample WAN bandwidth between two distinct regions."""
        dist = self.cross_region_distribution(region_a, region_b)
        out = np.maximum(np.asarray(dist.sample(rng, 1 if size is None else size)), 1e3)
        return float(out[0]) if size is None else out

    def mean_cross_region_bandwidth(self, region_a: str, region_b: str) -> float:
        """Mean WAN bandwidth (bytes/s); Eq. 10's ``Band_mn``."""
        return self.cross_region_distribution(region_a, region_b).mean()
