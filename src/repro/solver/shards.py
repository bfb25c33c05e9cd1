"""Parent-side coordinator for the distributed beam solve.

:class:`ShardPlane` is one engine's way onto its shards: it owns the
persistent :class:`~repro.parallel.ShardPool`, the shared-memory
:class:`~repro.parallel.TensorArena` the solve's compiled problem
travels through, and the lifetime counters ``Deco.cache_stats()``
reports.  :class:`ShardedEvaluator` is the sharded
:class:`~repro.solver.tiers.Evaluator`: it splits each call's
:class:`~repro.solver.state.StateBlock` into contiguous, even chunks of
rows, dispatches chunk ``j`` to shard ``j`` of a
:class:`~repro.parallel.ShardPool` (stable affinity keeps the
shard-resident evaluation caches warm across iterations), and
concatenates chunk results back in input order.

Each shard answers with the in-process
:class:`~repro.solver.search.LocalEvaluator` over its chunk (DESIGN.md
§13), so it returns only *pure per-candidate numbers* -- analytic
makespan moments, prefix-MC probabilities, full-fidelity
:class:`~repro.solver.state.BatchEval` vectors -- plus monotone counter
deltas.  Each is a function of (compiled problem, state) alone, so any
partition of a batch concatenates back to the serial numbers bit for
bit, and every search decision stays with the tiers in the parent.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.parallel import arena
from repro.parallel.executor import ShardPool, _ShardJob, chunk_evenly
from repro.parallel.workers import (
    beam_begin_solve_arena,
    beam_eval_job,
    beam_screen_job,
    init_deco_worker,
)
from repro.solver.state import BatchEval, StateBlock
from repro.solver.tiers import AnalyticTier, Evaluator

if TYPE_CHECKING:
    from repro.solver.backends import CompiledProblem
    from repro.solver.search import GenericSearch

__all__ = ["ShardPlane", "ShardedEvaluator"]


class ShardPlane:
    """One engine's shard pool, tensor arena and lifetime shard counters.

    Each of the ``workers`` shard processes rebuilds its resident engine
    from ``spec`` (:meth:`Deco.spec`) once; ``search`` is the owning
    engine's :class:`GenericSearch`, whose tier-0 gate and calibration
    decide what a published segment carries.  The pool and the arena are
    created on first use and released by :meth:`close`; the plane stays
    usable afterwards and keeps its lifetime counters.
    """

    #: Content fingerprints kept per ``(sample_token, calibrated)``.
    _FINGERPRINT_MEMO = 8

    def __init__(self, workers: int, spec: Mapping[str, object], search: "GenericSearch"):
        self.workers = workers
        self.spec = dict(spec)
        self.search = search
        self.pool: ShardPool | None = None
        self.arena: arena.TensorArena | None = None
        self.solves = 0
        #: Lifetime aggregate of the counter deltas every shard job reported.
        self.counters: dict[str, int] = {}
        self._fingerprints: OrderedDict[tuple, str] = OrderedDict()
        self._warned = False

    def calibration_shipped(self, problem: "CompiledProblem") -> bool:
        """Whether the arena segment should carry tier-0 quantile grids.

        Exactly when tier 0's static gate passes -- if the analytic tier
        can run on any shard, ship the calibration so no worker pays the
        ``np.quantile`` pass.  Shipping is a pure transfer optimization:
        a worker that calibrates locally gets bit-identical grids
        (``np.quantile`` over the same bytes).
        """
        return AnalyticTier.static_gate(
            problem, self.search.analytic_min_tasks, self.search.backend
        )

    def evaluator(self, problem: "CompiledProblem") -> "ShardedEvaluator | None":
        """This solve's sharded evaluator, or ``None`` to solve in-process.

        Publishes ``problem``'s immutable tensors into the arena, then
        installs the solve on every shard as the pool's prologue: the
        content key plus the deadline/faults scalars, stamped with the
        context key so a repeat solve of an unchanged problem skips the
        broadcast entirely.  Workers map the segment read-only and
        rebuild the same :class:`CompiledProblem` over those bytes; a
        worker respawned after a crash replays the prologue before its
        first job.

        Without POSIX shared memory, or when publishing or installing
        fails, the plane warns once and returns ``None``: the solve runs
        in-process and reports ``workers == 1``.
        """
        try:
            if not arena.arena_available():
                raise arena.ArenaError("no POSIX shared memory")
            arena_key = self._publish(problem)
            ctx_key = f"{arena_key}:{problem.deadline!r}:{problem.required_probability!r}"
            if self.pool is None:
                self.pool = ShardPool(
                    self.workers, initializer=init_deco_worker, initargs=(self.spec,)
                )
            self.pool.broadcast(
                beam_begin_solve_arena,
                (
                    ctx_key,
                    arena_key,
                    problem.deadline,
                    problem.required_probability,
                    problem.faults,
                    problem.recovery,
                    problem.reliability_required,
                ),
                stamp=ctx_key,
            )
        except Exception as exc:
            # The pool may hold the failed prologue; a fresh one replays nothing.
            if self.pool is not None:
                self.pool.close()
                self.pool = None
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"sharded solve unavailable ({exc!r}); solving in-process",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return None
        self.solves += 1
        return ShardedEvaluator(
            self.pool, ctx_key, self.search.evaluator(problem), self.counters
        )

    def _publish(self, problem: "CompiledProblem") -> str:
        """Publish ``problem``'s tensors into the arena; return the key.

        The key is the SHA-256 content fingerprint of the immutable
        arrays (plus faults metadata), so deadline sweeps over one
        workflow republish nothing and distinct engines hosting the
        same workflow converge on the same segment.  The fingerprint is
        memoized per ``sample_token`` -- hashing a Montage-8 tensor is
        not free -- and publishing an already-hosted key is a counted
        no-op.
        """
        from repro.engine.compiler import export_problem_arrays, problem_fingerprint

        calibrated = self.calibration_shipped(problem)
        memo_key = (problem.sample_token, calibrated)
        key = self._fingerprints.get(memo_key)
        if key is None:
            key = problem_fingerprint(problem, calibrated=calibrated)
            self._fingerprints[memo_key] = key
            while len(self._fingerprints) > self._FINGERPRINT_MEMO:
                self._fingerprints.popitem(last=False)
        else:
            self._fingerprints.move_to_end(memo_key)
        if self.arena is None:
            self.arena = arena.TensorArena()
        if key in self.arena:
            self.arena.counters["hits"] += 1
            return key
        calibration = None
        if calibrated:
            calibration = self.search._analytic_evaluator()._calibration(problem)
        arrays, meta = export_problem_arrays(problem, calibration=calibration)
        if not self.arena.publish(key, arrays, meta):
            raise arena.ArenaError(f"could not publish segment {key[:12]}...")
        return key

    def stats(self) -> dict:
        """``Deco.cache_stats()["distributed"]``: worker count, sharded
        solves, the shards' lifetime counters, the pool's broadcast
        accounting and the arena's segment counters."""
        out: dict = {"workers": self.workers, "solves": self.solves}
        out.update(self.counters)
        if self.pool is not None:
            out.update(self.pool.counters)
        if self.arena is not None:
            stats = self.arena.stats()
            for name in ("segments", "publishes", "hits", "evictions"):
                out[f"arena_{name}"] = stats[name]
            out["arena_bytes"] = stats["bytes_published"]
        return out

    def close(self) -> None:
        """Release the worker processes and the arena's segments (idempotent)."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.arena is not None:
            self.arena.close()
            self.arena = None


class ShardedEvaluator:
    """One solve's view of the shard pool.

    Parameters
    ----------
    pool:
        The engine's persistent :class:`ShardPool`; the current solve's
        compiled problem must already be installed on every shard (the
        begin-solve prologue broadcast by :meth:`ShardPlane.evaluator`).
    solve_key:
        The solve's arena context key (content key of the problem's
        tensors plus its deadline and percentile), stamped on every job
        so a stale worker (respawned, or recycled across solves) fails
        loudly instead of evaluating against the wrong problem.
    local:
        The parent's in-process evaluator of the same problem.  Once the
        pool runs in-process (it downgraded, possibly mid-solve) every
        call goes there instead.
    totals:
        The plane's lifetime counters; every shard delta lands there too.

    :attr:`shard_counters` accumulates the counter deltas the shard jobs
    report -- the parent's own caches see none of that traffic;
    :meth:`counters` adds them to the local evaluator's.
    """

    def __init__(
        self, pool: ShardPool, solve_key: str, local: Evaluator, totals: dict[str, int]
    ):
        self.pool = pool
        self.solve_key = solve_key
        self.local = local
        self.totals = totals
        self.shard_counters: dict[str, int] = {}

    @property
    def workers(self) -> int:
        return 1 if self.pool.is_serial else self.pool.workers

    def moments(self, block: StateBlock) -> tuple[np.ndarray, np.ndarray]:
        if self.pool.is_serial:
            return self.local.moments(block)
        parts = self.screen_round(block, "moments")
        return np.concatenate([m for m, _ in parts]), np.concatenate([v for _, v in parts])

    def screen(self, block: StateBlock) -> np.ndarray:
        if self.pool.is_serial:
            return self.local.screen(block)
        return np.concatenate(self.screen_round(block, "screen"))

    def evaluate(self, block: StateBlock) -> BatchEval:
        if self.pool.is_serial:
            return self.local.evaluate(block)
        return self.eval_round(block)

    def counters(self) -> dict[str, int]:
        totals = self.local.counters()
        for key, value in self.shard_counters.items():
            totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------

    def _absorb(self, delta: dict[str, int]) -> None:
        for key, value in delta.items():
            self.shard_counters[key] = self.shard_counters.get(key, 0) + int(value)
            self.totals[key] = self.totals.get(key, 0) + int(value)

    def _chunks(self, block: StateBlock) -> list[StateBlock]:
        """``block`` cut into one contiguous, even run of rows per shard."""
        return [block.take(rows) for rows in chunk_evenly(range(len(block)), self.pool.workers)]

    def screen_round(self, block: StateBlock, call: str) -> list:
        """One barrier of a screening call (``"moments"`` or ``"screen"``).

        Returns the per-chunk results in chunk order.
        """
        jobs = [
            self.pool.submit(shard, beam_screen_job, (self.solve_key, chunk, call))
            for shard, chunk in enumerate(self._chunks(block))
        ]
        values = []
        for value, delta in self.pool.gather(jobs):
            self._absorb(delta)
            values.append(value)
        return values

    def submit_eval(self, block: StateBlock) -> list[_ShardJob]:
        """Dispatch tier-2 full evaluation; pair with :meth:`gather_eval`."""
        return [
            self.pool.submit(shard, beam_eval_job, (self.solve_key, chunk))
            for shard, chunk in enumerate(self._chunks(block))
        ]

    def gather_eval(self, jobs: list[_ShardJob]) -> BatchEval:
        """Chunk evaluations concatenated back into submission order."""
        parts = []
        for chunk_evals, delta in self.pool.gather(jobs):
            self._absorb(delta)
            parts.append(chunk_evals)
        return BatchEval.concat(parts)

    def eval_round(self, block: StateBlock) -> BatchEval:
        """Barrier convenience: submit + gather in one call."""
        return self.gather_eval(self.submit_eval(block))
