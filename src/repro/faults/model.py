"""Declarative fault models for the cloud execution substrate.

A :class:`FaultModel` describes *what can go wrong* during a run,
independently of what the simulator or scheduler does about it (that is
:class:`~repro.faults.recovery.RecoveryPolicy`'s job):

* **transient task failures** -- each task *attempt* fails with
  probability ``task_failure_rate`` and burns its sampled runtime on
  the instance (the simulator's original ``failure_rate`` knob,
  generalized);
* **instance crash-stop failures** -- every acquired instance draws an
  exponential time-to-failure with mean ``instance_mtbf`` seconds; a
  crash kills the task running on it at the crash instant and retires
  the instance;
* **spot revocations** -- when a :class:`SpotMarket` is attached,
  instances are spot instances: an hourly price path is drawn from
  :class:`~repro.cloud.spot.SpotPriceProcess` and the instance is
  revoked the first hour the market price exceeds the bid (the
  provider-interrupted hour is free, the 2014 EC2 billing rule);
* **stragglers** -- with probability ``straggler_rate`` an attempt runs
  ``straggler_slowdown``x slower than its sampled runtime.

Every stochastic draw takes an explicit ``numpy`` generator; the
simulator derives it from the named stream
``faults/<workflow>/<region>/<run_id>``, so fault-injected runs are
bit-identical for any worker count and independent of the performance
streams (enabling faults never perturbs the cloud's performance trace).

The model also exposes its own *analytic expectation* (:meth:`inflate`)
so the optimizer can score plans under it: per-task runtimes are
inflated by the expected-retry geometric series, the expected straggler
slowdown, steady-state checkpoint overhead, and a first-order
crash-rework term -- the fault-aware provisioning path compared with
the fault-oblivious one by ``repro run ablation-faults``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ValidationError
from repro.cloud.spot import SpotPriceProcess
from repro.faults.recovery import RecoveryPolicy

__all__ = ["FaultModel", "SpotMarket"]


@dataclass(frozen=True)
class SpotMarket:
    """Spot-market participation: bid level and price-process shape.

    ``bid_fraction`` is the bid as a fraction of the on-demand price
    (1.0 = bid exactly on-demand).  The remaining parameters configure
    the per-type :class:`~repro.cloud.spot.SpotPriceProcess`.
    """

    bid_fraction: float = 1.0
    horizon_hours: int = 168
    mean_fraction: float = 0.3
    phi: float = 0.7
    sigma_fraction: float = 0.12

    def __post_init__(self):
        if self.bid_fraction <= 0:
            raise ValidationError(f"bid_fraction must be > 0, got {self.bid_fraction}")
        if self.horizon_hours < 1:
            raise ValidationError(f"horizon_hours must be >= 1, got {self.horizon_hours}")

    def process_for(self, catalog, type_name: str, region: str | None = None) -> SpotPriceProcess:
        """The price process of one catalog type in one region."""
        return SpotPriceProcess.for_type(
            catalog,
            type_name,
            region,
            mean_fraction=self.mean_fraction,
            phi=self.phi,
            sigma_fraction=self.sigma_fraction,
        )

    def bid(self, process: SpotPriceProcess) -> float:
        return self.bid_fraction * process.on_demand

    @staticmethod
    def revocation_hour(prices: np.ndarray, bid: float) -> int | None:
        """First hour index whose market price exceeds ``bid`` (None: never)."""
        over = np.nonzero(prices > bid)[0]
        return int(over[0]) if over.size else None

    def revocation_probability_per_hour(self, process: SpotPriceProcess) -> float:
        """Stationary P(price > bid) of the AR(1) process (analytic).

        The discrete OU process has stationary mean ``mean_price`` and
        stationary std ``sigma / sqrt(1 - phi**2)``; the clamping to
        [floor, cap] is ignored (second-order for historical defaults).
        """
        bid = self.bid(process)
        sigma = process.sigma_fraction * process.on_demand
        stat_sd = sigma / math.sqrt(1.0 - process.phi**2)
        if stat_sd <= 0:
            return 0.0 if bid >= process.mean_price else 1.0
        z = (bid - process.mean_price) / stat_sd
        return 0.5 * (1.0 - math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class FaultModel:
    """What can go wrong: the declarative fault surface of one run."""

    task_failure_rate: float = 0.0
    instance_mtbf: float = math.inf
    straggler_rate: float = 0.0
    straggler_slowdown: float = 2.5
    spot: SpotMarket | None = field(default=None)

    def __post_init__(self):
        if not 0.0 <= self.task_failure_rate < 1.0:
            raise ValidationError(
                f"task_failure_rate must be in [0, 1), got {self.task_failure_rate}"
            )
        if self.instance_mtbf <= 0:
            raise ValidationError(f"instance_mtbf must be > 0, got {self.instance_mtbf}")
        if not 0.0 <= self.straggler_rate < 1.0:
            raise ValidationError(
                f"straggler_rate must be in [0, 1), got {self.straggler_rate}"
            )
        if self.straggler_slowdown < 1.0:
            raise ValidationError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )

    # Classification --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any fault source is active."""
        return (
            self.task_failure_rate > 0.0
            or math.isfinite(self.instance_mtbf)
            or self.straggler_rate > 0.0
            or self.spot is not None
        )

    def describe(self) -> dict:
        """JSON-ready summary for bench payloads and plan provenance."""
        return {
            "task_failure_rate": self.task_failure_rate,
            "instance_mtbf": self.instance_mtbf if math.isfinite(self.instance_mtbf) else None,
            "straggler_rate": self.straggler_rate,
            "straggler_slowdown": self.straggler_slowdown,
            "spot_bid_fraction": self.spot.bid_fraction if self.spot else None,
        }

    # Stochastic draws (simulation side) ------------------------------------

    def attempt_fails(self, rng: np.random.Generator) -> bool:
        """Transient per-attempt failure draw (no draw when rate is 0)."""
        if self.task_failure_rate == 0.0:
            return False
        return bool(rng.random() < self.task_failure_rate)

    def straggler_factor(self, rng: np.random.Generator) -> float:
        """Per-attempt slowdown multiplier (1.0, or the straggler factor)."""
        if self.straggler_rate == 0.0:
            return 1.0
        return self.straggler_slowdown if rng.random() < self.straggler_rate else 1.0

    def crash_time(self, acquired: float, rng: np.random.Generator) -> float:
        """Absolute crash-stop instant of an instance acquired at ``acquired``."""
        if not math.isfinite(self.instance_mtbf):
            return math.inf
        return acquired + float(rng.exponential(self.instance_mtbf))

    # Analytic expectations (optimizer side) --------------------------------

    @property
    def expected_straggler_factor(self) -> float:
        return 1.0 + self.straggler_rate * (self.straggler_slowdown - 1.0)

    def inflate(self, times: np.ndarray, recovery: RecoveryPolicy) -> np.ndarray:
        """Expected effective runtimes under this fault model.

        ``t' = t * A * G * C + (t * A * G * C / MTBF) * rework`` where
        ``A`` is the expected-retry geometric series over the retry
        budget, ``G`` the expected straggler slowdown, ``C`` the
        steady-state checkpoint overhead factor, and the additive term
        is the first-order crash-rework expectation (expected number of
        crashes during the task times the expected work lost per crash:
        half the task without checkpoints, half a checkpoint interval
        plus the restore cost with them).  Element-wise over any array
        of task times -- the solver applies it to a compiled problem's
        one task-major ``(K, N, S)`` sample array and its mean times.
        """
        t = np.asarray(times, dtype=float)
        factor = recovery.expected_attempts(self.task_failure_rate)
        factor *= self.expected_straggler_factor
        if recovery.checkpoint is not None:
            factor *= recovery.checkpoint.overhead_factor
        out = t * factor
        crash_rate = 0.0
        if math.isfinite(self.instance_mtbf):
            crash_rate += 1.0 / self.instance_mtbf
        # Spot revocations behave like crashes with an hourly hazard.
        if self.spot is not None:
            # The hazard is type-dependent only through the price level,
            # which cancels in the fractions; use fraction parameters on
            # a unit on-demand price.
            proc = SpotPriceProcess(
                on_demand=1.0,
                mean_fraction=self.spot.mean_fraction,
                phi=self.spot.phi,
                sigma_fraction=self.spot.sigma_fraction,
            )
            crash_rate += self.spot.revocation_probability_per_hour(proc) / 3600.0
        if crash_rate > 0.0:
            if recovery.checkpoint is not None:
                rework = 0.5 * recovery.checkpoint.interval + recovery.checkpoint.restore
                out = out + out * crash_rate * rework
            else:
                # Without checkpoints a crash loses half the attempt on
                # average: t' = t / (1 - t * rate / 2), first order.
                out = out * (1.0 + 0.5 * np.minimum(out * crash_rate, 0.9))
        return out

    def plan_success_probability(self, num_tasks: int, recovery: RecoveryPolicy) -> float:
        """P(every task succeeds within its retry budget) -- analytic.

        Only transient failures bound success here: crash/revocation
        failures resubmit to fresh capacity, and the elastic pool always
        has more (they consume retry budget in *simulation*, but the
        analytic model keeps the clean geometric form the reliability
        constraint declares).
        """
        if num_tasks < 0:
            raise ValidationError(f"num_tasks must be >= 0, got {num_tasks}")
        return recovery.success_probability(self.task_failure_rate) ** num_tasks
