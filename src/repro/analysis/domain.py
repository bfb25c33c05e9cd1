"""The interval abstract domain.

One value type: :class:`Interval`, a closed range ``[lo, hi]`` of
reals.  The passes in this package propagate intervals through the
task graph (makespan) and the cost sum (Eq. 1); the domain operations
here are the usual interval arithmetic, each sound in the sense that
the concrete result of the operation on any members of the operand
intervals lies in the result interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ValidationError

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValidationError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValidationError(f"empty interval: lo {self.lo} > hi {self.hi}")

    @classmethod
    def point(cls, value: float) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return cls(float(value), float(value))

    @classmethod
    def top(cls) -> "Interval":
        """The unbounded interval (no information)."""
        return cls(-math.inf, math.inf)

    # Arithmetic -----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def max(self, other: "Interval") -> "Interval":
        """Interval of ``max(x, y)`` for x, y in the operands."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound in the domain lattice (the convex hull)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # Queries --------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def certainly_above(self, bound: float) -> bool:
        """Every concrete value exceeds ``bound``."""
        return self.lo > bound

    def certainly_at_most(self, bound: float) -> bool:
        """Every concrete value is <= ``bound``."""
        return self.hi <= bound

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"
