"""Parent-side coordinator for the distributed beam solve.

:class:`ShardedEvaluator` is the sharded
:class:`~repro.solver.tiers.Evaluator`: it splits each call's states
into contiguous, even chunks, dispatches chunk ``j`` to shard ``j`` of
a :class:`~repro.parallel.ShardPool` (stable affinity keeps the
shard-resident evaluation caches warm across iterations), and
concatenates chunk results back in input order.

Each shard answers with the in-process
:class:`~repro.solver.search.LocalEvaluator` over its chunk (DESIGN.md
§13), so it returns only *pure per-candidate numbers* -- analytic
makespan moments, prefix-MC probabilities, full-fidelity
:class:`~repro.solver.state.StateEval`\\ s -- plus monotone counter
deltas.  Each is a function of (compiled problem, state) alone, so any
partition of a batch concatenates back to the serial numbers bit for
bit, and every search decision stays with the tiers in the parent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.parallel.executor import ShardPool, _ShardJob, chunk_evenly
from repro.parallel.workers import beam_eval_job, beam_screen_job
from repro.solver.state import PlanState, StateEval
from repro.solver.tiers import Evaluator

__all__ = ["ShardedEvaluator"]


class ShardedEvaluator:
    """One solve's view of the shard pool.

    Parameters
    ----------
    pool:
        The engine's persistent :class:`ShardPool`; the current solve's
        compiled problem must already be installed on every shard (the
        begin-solve prologue broadcast by :meth:`Deco._sharded_evaluator`).
    solve_key:
        Per-solve context token stamped on every job -- a monotone int
        on the legacy path, the arena context key on the shared-memory
        path -- so a stale worker (respawned, or recycled across
        solves) fails loudly instead of evaluating against the wrong
        problem.
    local:
        The parent's in-process evaluator of the same problem.  Once the
        pool runs in-process (it downgraded, possibly mid-solve) every
        call goes there instead.

    :attr:`shard_counters` accumulates the counter deltas the shard jobs
    report -- the parent's own caches see none of that traffic;
    :meth:`counters` adds them to the local evaluator's.
    """

    def __init__(self, pool: ShardPool, solve_key: object, local: Evaluator):
        self.pool = pool
        self.solve_key = solve_key
        self.local = local
        self.shard_counters: dict[str, int] = {}

    @property
    def workers(self) -> int:
        return 1 if self.pool.is_serial else self.pool.workers

    def moments(self, states: list[PlanState]) -> tuple[np.ndarray, np.ndarray]:
        if self.pool.is_serial:
            return self.local.moments(states)
        parts = self.screen_round(states, "moments")
        return np.concatenate([m for m, _ in parts]), np.concatenate([v for _, v in parts])

    def screen(self, states: list[PlanState]) -> np.ndarray:
        if self.pool.is_serial:
            return self.local.screen(states)
        return np.concatenate(self.screen_round(states, "screen"))

    def evaluate(
        self, states: list[PlanState], parents: Sequence[PlanState] = ()
    ) -> list[StateEval]:
        if self.pool.is_serial:
            return self.local.evaluate(states, parents)
        return self.eval_round(states, parents)

    def counters(self) -> dict[str, int]:
        totals = self.local.counters()
        for key, value in self.shard_counters.items():
            totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------

    def _absorb(self, delta: dict[str, int]) -> None:
        for key, value in delta.items():
            self.shard_counters[key] = self.shard_counters.get(key, 0) + int(value)

    def screen_round(self, states: list[PlanState], call: str) -> list:
        """One barrier of a screening call (``"moments"`` or ``"screen"``).

        Returns the per-chunk results in chunk order.
        """
        jobs = [
            self.pool.submit(shard, beam_screen_job, (self.solve_key, chunk, call))
            for shard, chunk in enumerate(chunk_evenly(states, self.pool.workers))
        ]
        values = []
        for value, delta in self.pool.gather(jobs):
            self._absorb(delta)
            values.append(value)
        return values

    def submit_eval(
        self,
        states: list[PlanState],
        parents: Sequence[PlanState],
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
        self, states: list[PlanState], parents: Sequence[PlanState] = ()
    ) -> list[StateEval]:
        """Barrier convenience: submit + gather in one call."""
        return self.gather_eval(self.submit_eval(states, parents))
