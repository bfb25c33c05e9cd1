"""Workflow ensembles (paper Section 3.2 / Malawski et al. SC'12).

An ensemble is a group of structurally similar workflows with different
sizes, each carrying a priority; completing the workflow with priority
``P`` contributes ``2**-P`` to the ensemble score (paper Eq. 4).

The five ensemble types of the paper's evaluation control how member
*sizes* are drawn and how priorities relate to size:

* ``constant`` -- every member has the same size;
* ``uniform_sorted`` / ``uniform_unsorted`` -- sizes uniform over the
  size set; *sorted* assigns the highest priority to the largest
  workflow, *unsorted* assigns priorities randomly;
* ``pareto_sorted`` / ``pareto_unsorted`` -- sizes Pareto-distributed
  (a few large members, many small ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import spawn_rng
from repro.workflow.dag import Workflow

__all__ = ["EnsembleMember", "Ensemble", "make_ensemble", "ENSEMBLE_TYPES"]

ENSEMBLE_TYPES = (
    "constant",
    "uniform_sorted",
    "uniform_unsorted",
    "pareto_sorted",
    "pareto_unsorted",
)


@dataclass(frozen=True)
class EnsembleMember:
    """One workflow in an ensemble.

    ``priority`` 0 is the most important member; the member's score is
    ``2**-priority``.  ``deadline`` (seconds) and ``deadline_percentile``
    express the member's probabilistic deadline constraint
    ``P(t_w <= deadline) >= deadline_percentile/100``.  ``deadline`` is
    ``None`` until :meth:`Ensemble.with_constraints` sets it (what
    :func:`make_ensemble` builds); a member without one cannot be solved.
    """

    workflow: Workflow
    priority: int
    deadline: float | None = None
    deadline_percentile: float = 96.0

    def __post_init__(self):
        if self.priority < 0:
            raise ValidationError(f"priority must be >= 0, got {self.priority}")
        if self.deadline is not None and not (math.isfinite(self.deadline) and self.deadline > 0):
            raise ValidationError(f"deadline must be a finite number > 0, got {self.deadline}")
        if not 0 < self.deadline_percentile <= 100:
            raise ValidationError(
                f"deadline_percentile must be in (0, 100], got {self.deadline_percentile}"
            )

    @property
    def score(self) -> float:
        """This member's contribution to the ensemble score if completed."""
        return 2.0 ** (-self.priority)


@dataclass(frozen=True)
class Ensemble:
    """A prioritized group of workflows under one budget (paper Eq. 4-6)."""

    name: str
    members: tuple[EnsembleMember, ...]
    budget: float = float("inf")

    def __post_init__(self):
        if not self.members:
            raise ValidationError("ensemble must have at least one member")
        if self.budget <= 0:
            raise ValidationError(f"budget must be > 0, got {self.budget}")
        prios = sorted(m.priority for m in self.members)
        if prios != list(range(len(self.members))):
            raise ValidationError("member priorities must be a permutation of 0..n-1")
        object.__setattr__(self, "members", tuple(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def require_deadlines(self) -> None:
        """Raise unless every member has a deadline (member solves need one)."""
        unset = sorted(m.priority for m in self.members if m.deadline is None)
        if unset:
            raise ValidationError(
                f"members {unset} have no deadline; set them with with_constraints"
            )

    def by_priority(self) -> tuple[EnsembleMember, ...]:
        """Members ordered from most to least important."""
        return tuple(sorted(self.members, key=lambda m: m.priority))

    def score(self, completed: Iterable[int]) -> float:
        """Ensemble score for a set of completed member *priorities*.

        ``completed`` holds priorities (unique per member by
        construction), so the score is sum of ``2**-p`` (paper Eq. 4).
        """
        done = set(completed)
        unknown = done - {m.priority for m in self.members}
        if unknown:
            raise ValidationError(f"unknown member priorities: {sorted(unknown)}")
        return float(sum(2.0 ** (-p) for p in done))

    def max_score(self) -> float:
        """The score if every member completes."""
        return self.score(m.priority for m in self.members)

    def with_constraints(
        self,
        budget: float,
        deadline_for: Callable[[EnsembleMember], float],
        deadline_percentile: float = 96.0,
    ) -> "Ensemble":
        """A copy with a budget and per-member deadlines filled in."""
        members = tuple(
            EnsembleMember(
                workflow=m.workflow,
                priority=m.priority,
                deadline=deadline_for(m),
                deadline_percentile=deadline_percentile,
            )
            for m in self.members
        )
        return Ensemble(self.name, members, budget)


def make_ensemble(
    kind: str,
    generator: Callable[..., Workflow],
    num_workflows: int,
    sizes: Sequence[int] = (20, 100, 1000),
    seed: int = 0,
    name: str | None = None,
) -> Ensemble:
    """Build an ensemble of ``num_workflows`` members of type ``kind``.

    ``generator`` is one of the :mod:`repro.workflow.generators`
    callables accepting ``(num_tasks=..., seed=..., name=...)``;
    ``sizes`` is the size set the paper uses (20, 100, 1000 tasks).
    """
    if kind not in ENSEMBLE_TYPES:
        raise ValidationError(f"unknown ensemble type {kind!r}; choose from {ENSEMBLE_TYPES}")
    if num_workflows < 1:
        raise ValidationError(f"num_workflows must be >= 1, got {num_workflows}")
    if not sizes:
        raise ValidationError("sizes must be non-empty")
    rng = spawn_rng(seed, f"ensemble/{kind}/{num_workflows}")
    sizes = sorted(int(s) for s in sizes)

    if kind == "constant":
        chosen = [sizes[len(sizes) // 2]] * num_workflows
    elif kind.startswith("uniform"):
        chosen = [int(rng.choice(sizes)) for _ in range(num_workflows)]
    else:  # pareto: few large, many small -- map Pareto quantiles onto the size set
        draws = rng.pareto(1.16, size=num_workflows)  # 80/20-style shape
        hi = np.percentile(draws, 90) or 1.0
        idx = np.minimum((draws / hi * len(sizes)).astype(int), len(sizes) - 1)
        chosen = [sizes[i] for i in idx]

    workflows = [
        generator(num_tasks=size, seed=int(rng.integers(0, 2**31 - 1)), name=f"{kind}-w{i}")
        for i, size in enumerate(chosen)
    ]

    order = list(range(num_workflows))
    if kind.endswith("_sorted"):
        # Highest priority (0) to the largest workflow.
        order.sort(key=lambda i: -len(workflows[i]))
    else:
        rng.shuffle(order)
    priority_of = {wf_idx: prio for prio, wf_idx in enumerate(order)}

    members = tuple(
        EnsembleMember(workflow=workflows[i], priority=priority_of[i])
        for i in range(num_workflows)
    )
    return Ensemble(name or f"{kind}-ensemble", members)
