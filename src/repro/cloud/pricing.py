"""Billing: hourly instance charges and inter-region transfer pricing.

Two cost notions (both used by the paper):

* the **analytic cost** of Eq. 1-2 -- mean task runtime x unit price,
  fractional hours -- used *inside* the optimizer, and
* the **billed cost** -- whole instance-hours, as 2015-era EC2 charged
  and as the simulator accounts -- used when "running" plans.

Inter-region migration cost (Eq. 9) is ``data_bytes * K_mn`` with
``K_mn`` the egress price of the source region; intra-region transfer
is free, matching EC2.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.units import billed_cost
from repro.cloud.instance_types import Catalog

__all__ = ["PricingModel"]

_BYTES_PER_GB = 1_000_000_000.0


class PricingModel:
    """Price computations over a :class:`~repro.cloud.instance_types.Catalog`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def unit_price(self, type_name: str, region: str | None = None) -> float:
        """$/hour of an instance type in a region."""
        return self.catalog.price(type_name, region)

    def billed_instance_cost(
        self, busy_seconds: float, type_name: str, region: str | None = None
    ) -> float:
        """Whole-hour billed cost of one instance used for ``busy_seconds``."""
        return billed_cost(busy_seconds, self.unit_price(type_name, region))

    def transfer_cost(self, data_bytes: float, src_region: str, dst_region: str) -> float:
        """Eq. 9 migration cost: egress-priced, free within a region."""
        if data_bytes < 0:
            raise ValidationError(f"negative transfer size: {data_bytes}")
        if src_region == dst_region:
            return 0.0
        src = self.catalog.region(src_region)
        self.catalog.region(dst_region)  # validate destination exists
        return data_bytes / _BYTES_PER_GB * src.transfer_out_per_gb

