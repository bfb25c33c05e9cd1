"""Parent-side coordinator for the distributed beam solve.

:class:`ShardedEvaluator` is the thin bridge between
:meth:`GenericSearch.solve` and a :class:`~repro.parallel.ShardPool`:
it splits each beam iteration's candidate batch into contiguous, even
chunks, dispatches chunk ``j`` to shard ``j`` (stable affinity keeps the
shard-resident evaluation caches warm across iterations), and
concatenates chunk results back in input order.

The determinism contract (DESIGN.md §13): shards return only *pure
per-candidate numbers* -- analytic makespan moments, prefix-MC
probabilities, full-fidelity
:class:`~repro.solver.state.StateEval`\\ s, and monotone counter deltas.
Each of those is a function of (compiled problem, state) alone -- never
of batch composition, worker count, or cache temperature -- so any
partition of the batch, evaluated anywhere, concatenates back to the
serial batch bit for bit, and every search *decision* (tier
classification, keep masks, incumbent updates, frontier merge) stays in
the parent process.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.executor import ShardPool, _ShardJob, chunk_evenly
from repro.parallel.workers import beam_eval_job, beam_screen_job
from repro.solver.state import PlanState, StateEval

__all__ = ["ShardedEvaluator"]


class ShardedEvaluator:
    """One solve's view of the shard pool.

    Parameters
    ----------
    pool:
        The engine's persistent :class:`ShardPool`; the current solve's
        compiled problem must already be installed on every shard (the
        begin-solve prologue broadcast by :meth:`Deco._distributor`).
    solve_key:
        Per-solve context token stamped on every job -- a monotone int
        on the legacy path, the arena context key on the shared-memory
        path -- so a stale worker (respawned, or recycled across
        solves) fails loudly instead of evaluating against the wrong
        problem.

    :attr:`counters` accumulates the worker-side monotone counter
    deltas (makespan/frontier cache hits, delta-propagation work, tier-0
    analytic work) that each job reports -- the parent's own caches see
    none of that traffic, so without this the sharded solve would
    silently under-report its work relative to the serial one.
    """

    def __init__(self, pool: ShardPool, solve_key):
        self.pool = pool
        self.solve_key = solve_key
        self.counters: dict[str, int] = {}

    @property
    def is_serial(self) -> bool:
        """Whether jobs currently run in-process (pool downgraded or 1 worker)."""
        return self.pool.is_serial

    @property
    def workers(self) -> int:
        return self.pool.workers

    # ------------------------------------------------------------------

    def _absorb(self, delta: dict[str, int]) -> None:
        for key, value in delta.items():
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def screen_round(
        self,
        states: list[PlanState],
        want_moments: bool,
        want_screen: bool,
        screen_samples: int,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """Tier-0 moments and/or tier-1 prefix probabilities, one barrier.

        Both tiers ride one sharded round trip: moments and prefix
        probabilities are per-candidate values, so the parent can run
        the global tier-0 classification (whose median standdown needs
        the *whole* batch) and then subset the already-computed
        probabilities to the tier-0 survivors -- identical numbers to
        the serial cascade's survivors-only screen, one round earlier.
        """
        jobs = [
            self.pool.submit(
                shard,
                beam_screen_job,
                (self.solve_key, chunk, want_moments, want_screen, screen_samples),
            )
            for shard, chunk in enumerate(chunk_evenly(states, self.pool.workers))
        ]
        means: list[np.ndarray] = []
        variances: list[np.ndarray] = []
        probs: list[np.ndarray] = []
        for a_mean, a_var, p, delta in self.pool.gather(jobs):
            self._absorb(delta)
            if a_mean is not None:
                means.append(a_mean)
                variances.append(a_var)
            if p is not None:
                probs.append(p)
        return (
            np.concatenate(means) if means else None,
            np.concatenate(variances) if variances else None,
            np.concatenate(probs) if probs else None,
        )

    # Tier-2 dispatch ---------------------------------------------------

    def submit_eval(
        self,
        states: list[PlanState],
        parents: list[PlanState],
    ) -> list[_ShardJob]:
        """Dispatch tier-2 full evaluation; pair with :meth:`gather_eval`.

        Each job carries its chunk plus the expanded parents the chunk
        descends from, so the shard-resident EvalContext can pin
        frontiers and serve the delta-propagation path.
        """
        jobs = []
        for shard, chunk in enumerate(chunk_evenly(states, self.pool.workers)):
            need = {c.parent_key for c in chunk}
            pins = [p for p in parents if p.key in need]
            jobs.append(
                self.pool.submit(shard, beam_eval_job, (self.solve_key, chunk, pins))
            )
        return jobs

    def gather_eval(self, jobs: list[_ShardJob]) -> list[StateEval]:
        """Chunk evaluations concatenated back into submission order."""
        evals: list[StateEval] = []
        for chunk_evals, delta in self.pool.gather(jobs):
            self._absorb(delta)
            evals.extend(chunk_evals)
        return evals

    def eval_round(
        self,
        states: list[PlanState],
        parents: list[PlanState] = (),
    ) -> list[StateEval]:
        """Barrier convenience: submit + gather in one call."""
        return self.gather_eval(self.submit_eval(states, list(parents)))
