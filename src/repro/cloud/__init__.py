"""IaaS cloud substrate.

The paper runs on Amazon EC2 and on a CloudSim-based simulator seeded
with EC2 calibration data.  This package implements that substrate from
scratch:

* :mod:`~repro.cloud.instance_types` -- the m1.* instance catalog with
  the paper's Table 2 performance distributions and 2014-era prices for
  the two regions the paper uses (US East, Asia-Pacific/Singapore).
* :mod:`~repro.cloud.pricing` -- hourly billing and inter-region data
  transfer pricing (the ``K_mn`` of Eq. 9).
* :mod:`~repro.cloud.network` -- pairwise bandwidth model (intra-region
  bandwidth limited by the slower endpoint; cross-region links slower).
* :mod:`~repro.cloud.calibration` -- micro-benchmarks that "measure" the
  (simulated) cloud and fit/discretize the results, reproducing the
  paper's 7-day calibration campaign and Table 2: they recover the
  catalog's distributions, which WLog's ``import(cloud)`` reads.
* :mod:`~repro.cloud.simulator` -- a discrete-event cloud simulator
  (Cloud / Instance / per-second performance dynamics / hourly billing)
  used to *execute* workflows under a provisioning plan.
"""

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports
from repro.cloud.instance_types import (
    InstanceType,
    Catalog,
    Region,
    ec2_catalog,
    EC2_REGIONS,
)
from repro.cloud.pricing import PricingModel
from repro.cloud.network import NetworkModel
from repro.cloud.spot import SpotPriceProcess, SpotOutcome, simulate_spot_run

if TYPE_CHECKING:
    from repro.cloud.calibration import Calibrator, CalibrationResult
    from repro.cloud.simulator import CloudSimulator, ExecutionResult, TaskRecord

# Planning reads the catalog and the price/network models; the simulator
# (with the fault, recovery and process-pool modules it drives) and the
# calibration campaign load when a caller executes or calibrates.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Calibrator": "repro.cloud.calibration",
        "CalibrationResult": "repro.cloud.calibration",
        "CloudSimulator": "repro.cloud.simulator",
        "ExecutionResult": "repro.cloud.simulator",
        "TaskRecord": "repro.cloud.simulator",
    },
)

__all__ = [
    "InstanceType",
    "Catalog",
    "Region",
    "ec2_catalog",
    "EC2_REGIONS",
    "PricingModel",
    "NetworkModel",
    "Calibrator",
    "CalibrationResult",
    "CloudSimulator",
    "ExecutionResult",
    "TaskRecord",
    "SpotPriceProcess",
    "SpotOutcome",
    "simulate_spot_run",
]
