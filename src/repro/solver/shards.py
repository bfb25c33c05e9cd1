"""Parent-side coordinator for the distributed beam solve.

:class:`ShardedEvaluator` is the thin bridge between
:meth:`GenericSearch.solve` and a :class:`~repro.parallel.ShardPool`:
it partitions each beam iteration's candidate batch into contiguous
chunks, dispatches chunk ``j`` to shard ``j`` (stable affinity keeps the
shard-resident evaluation caches warm across iterations), and
concatenates chunk results back in input order.

Two layers of adaptivity sit on top of the even split (DESIGN.md §15):

* **Cost-model weighted partitioning** -- every worker job reports its
  wall-clock and candidate count; :class:`ShardCostModel` keeps a
  per-(workflow, tier, shard) EWMA of per-candidate cost, and
  :func:`~repro.parallel.partition_weighted` sizes the next round's
  chunks proportionally to each shard's measured speed.  The partition
  is deterministic given the recorded weights
  (:meth:`ShardCostModel.snapshot`).
* **Bounded work stealing** -- large tier-2 chunks are split into a
  primary and a tail; a shard that finishes early takes its own tail
  first, then the largest remaining tail of a straggler.  Each tail is
  dispatched at most once.

Neither layer can perturb the plan.  The determinism contract
(DESIGN.md §13): shards return only *pure per-candidate numbers* --
analytic makespan moments, prefix-MC probabilities, full-fidelity
:class:`~repro.solver.state.StateEval`\\ s, and monotone counter deltas.
Each of those is a function of (compiled problem, state) alone -- never
of batch composition, worker count, or cache temperature -- so any
partition of the batch, evaluated anywhere, concatenates back to the
serial batch bit for bit; partitioning and stealing only re-route
*where* a chunk is computed, and every search *decision* (tier
classification, keep masks, incumbent updates, frontier merge) stays in
the parent process.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.parallel.executor import (
    ShardPool,
    _ShardJob,
    chunk_evenly,
    partition_weighted,
)
from repro.parallel.workers import beam_eval_job, beam_screen_job
from repro.solver.state import PlanState, StateEval

__all__ = ["ShardCostModel", "ShardedEvaluator"]

#: Chunks below this size are never split for stealing: the tail would
#: be too small to outweigh one extra dispatch round-trip.
_STEAL_MIN_CHUNK = 8


class ShardCostModel:
    """Per-(workflow, tier, shard) EWMA of measured per-candidate cost.

    Costs are microseconds per candidate, fed by the elapsed/candidate
    counters every shard job reports.  ``weights`` converts them into
    relative shard *speeds* (1/cost) for the weighted partitioner;
    until a (workflow, tier) pair has at least one observation the
    model abstains (``None``) and callers fall back to even chunking.
    ``snapshot``/``restore`` round-trip the recorded state so a
    partition can be reproduced exactly.
    """

    def __init__(self, alpha: float = 0.3, max_workflows: int = 8):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.max_workflows = int(max_workflows)
        # wf_key -> tier -> per-shard EWMA cost (None = shard unseen).
        self._costs: OrderedDict[str, dict[str, list[float | None]]] = OrderedDict()
        self.observations = 0

    def observe(
        self, wf_key: str, tier: str, shard: int, candidates: int, elapsed_us: int
    ) -> None:
        if candidates <= 0 or elapsed_us <= 0 or shard < 0:
            return
        cost = float(elapsed_us) / float(candidates)
        tiers = self._costs.get(wf_key)
        if tiers is None:
            tiers = self._costs[wf_key] = {}
        self._costs.move_to_end(wf_key)
        while len(self._costs) > self.max_workflows:
            self._costs.popitem(last=False)
        row = tiers.setdefault(tier, [])
        while len(row) <= shard:
            row.append(None)
        prev = row[shard]
        row[shard] = cost if prev is None else (1.0 - self.alpha) * prev + self.alpha * cost
        self.observations += 1

    def weights(self, wf_key: str, tier: str, shards: int) -> list[float] | None:
        """Relative speed per shard slot, or ``None`` before any data.

        A shard without its own observation gets the mean cost of the
        observed ones, so one slow shard cannot starve unseen slots.
        """
        row = self._costs.get(wf_key, {}).get(tier)
        if not row:
            return None
        known = [c for c in row if c is not None and c > 0.0]
        if not known:
            return None
        mean_cost = sum(known) / len(known)
        costs = [
            row[j] if j < len(row) and row[j] else mean_cost for j in range(shards)
        ]
        return [1.0 / c for c in costs]

    def snapshot(self) -> dict:
        """JSON-able record of every EWMA (provenance for replays)."""
        return {
            wf: {tier: list(r) for tier, r in tiers.items()}
            for wf, tiers in self._costs.items()
        }

    def restore(self, snapshot: dict) -> None:
        self._costs.clear()
        for wf, tiers in snapshot.items():
            self._costs[wf] = {
                tier: [None if c is None else float(c) for c in row]
                for tier, row in tiers.items()
            }


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
    cost_model / wf_key:
        The engine's persistent :class:`ShardCostModel` and the
        workflow's content key within it.  Chunks are weighted by the
        model once it has an observation for the (workflow, tier) and
        split evenly until then.

    :attr:`counters` accumulates the worker-side monotone counter
    deltas (makespan/frontier cache hits, delta-propagation work, tier-0
    analytic work, chunk wall-clock) that each job reports -- the
    parent's own caches see none of that traffic, so without this the
    sharded solve would silently under-report its work relative to the
    serial one.  :attr:`imbalance_sum`/:attr:`imbalance_rounds` track
    the max/mean per-shard elapsed ratio per multi-shard round (1.0 ==
    perfectly balanced).
    """

    def __init__(
        self,
        pool: ShardPool,
        solve_key,
        *,
        cost_model: ShardCostModel | None = None,
        wf_key: str = "",
    ):
        self.pool = pool
        self.solve_key = solve_key
        self.cost_model = cost_model
        self.wf_key = wf_key
        self.counters: dict[str, int] = {}
        self.imbalance_sum = 0.0
        self.imbalance_rounds = 0
        self._steal: dict | None = None

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

    def _harvest(self, delta: dict[str, int], tier: str, shard: int,
                 elapsed_by_shard: dict[int, int]) -> None:
        """Absorb one job's counters + feed the cost model and imbalance."""
        self._absorb(delta)
        elapsed = int(delta.get(f"{tier}_elapsed_us", 0))
        candidates = int(delta.get(f"{tier}_candidates", 0))
        elapsed_by_shard[shard] = elapsed_by_shard.get(shard, 0) + elapsed
        if self.cost_model is not None:
            self.cost_model.observe(self.wf_key, tier, shard, candidates, elapsed)

    def _record_imbalance(self, elapsed_by_shard: dict[int, int]) -> None:
        values = [v for v in elapsed_by_shard.values() if v > 0]
        if len(values) < 2:
            return
        mean = sum(values) / len(values)
        if mean > 0:
            self.imbalance_sum += max(values) / mean
            self.imbalance_rounds += 1

    def _partition(self, states: list[PlanState], tier: str) -> list[list[PlanState]]:
        """Contiguous chunks for this round: weighted when the model can.

        Weighted partitions keep empty chunks (slot alignment); callers
        skip them at dispatch.  Even chunking is what a model without
        data (or a downgraded pool) falls back to.
        """
        if self.cost_model is not None and not self.pool.is_serial:
            weights = self.cost_model.weights(self.wf_key, tier, self.pool.workers)
            if weights is not None:
                return partition_weighted(states, weights)
        return chunk_evenly(states, self.pool.workers)

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
        chunks = self._partition(states, "screen")
        dispatched: list[int] = []
        jobs = []
        for shard, chunk in enumerate(chunks):
            if not chunk:
                continue
            dispatched.append(shard)
            jobs.append(
                self.pool.submit(
                    shard,
                    beam_screen_job,
                    (self.solve_key, chunk, want_moments, want_screen, screen_samples),
                )
            )
        means: list[np.ndarray] = []
        variances: list[np.ndarray] = []
        probs: list[np.ndarray] = []
        elapsed_by_shard: dict[int, int] = {}
        for shard, (a_mean, a_var, p, delta) in zip(dispatched, self.pool.gather(jobs)):
            self._harvest(delta, "screen", shard, elapsed_by_shard)
            if a_mean is not None:
                means.append(a_mean)
                variances.append(a_var)
            if p is not None:
                probs.append(p)
        self._record_imbalance(elapsed_by_shard)
        return (
            np.concatenate(means) if means else None,
            np.concatenate(variances) if variances else None,
            np.concatenate(probs) if probs else None,
        )

    # Tier-2 dispatch ---------------------------------------------------

    def _submit_chunk(
        self,
        shard: int,
        chunk: list[PlanState],
        parents: list[PlanState],
    ) -> _ShardJob:
        """One eval job: the chunk plus the expanded parents it descends
        from, so the shard-resident EvalContext can pin frontiers and
        serve the delta-propagation path."""
        need = {c.parent_key for c in chunk}
        pins = [p for p in parents if p.key in need]
        return self.pool.submit(shard, beam_eval_job, (self.solve_key, chunk, pins))

    def submit_eval(
        self,
        states: list[PlanState],
        parents: list[PlanState],
    ) -> list[_ShardJob]:
        """Dispatch tier-2 full evaluation; pair with :meth:`gather_eval`.

        The split submit/gather lets the search run speculative child
        expansion in the parent while shards evaluate.  Large chunks
        are split into a primary plus a tail held back for work
        stealing at gather time.
        """
        chunks = self._partition(states, "eval")
        self._steal = None
        stealing = not self.pool.is_serial and sum(1 for c in chunks if c) > 1
        if not stealing:
            return [
                self._submit_chunk(shard, chunk, parents)
                for shard, chunk in enumerate(chunks)
                if chunk
            ]
        seq = 0
        entries: list[dict] = []  # in-flight: {job, seq, shard}
        tails: list[dict] = []    # held back: {origin, chunk, seq}
        jobs: list[_ShardJob] = []
        for shard, chunk in enumerate(chunks):
            if not chunk:
                continue
            if len(chunk) >= _STEAL_MIN_CHUNK:
                cut = len(chunk) - len(chunk) // 3
                job = self._submit_chunk(shard, chunk[:cut], parents)
                entries.append({"job": job, "seq": seq, "shard": shard})
                jobs.append(job)
                tails.append({"origin": shard, "chunk": chunk[cut:], "seq": seq + 1})
                seq += 2
            else:
                job = self._submit_chunk(shard, chunk, parents)
                entries.append({"job": job, "seq": seq, "shard": shard})
                jobs.append(job)
                seq += 1
        self._steal = {"entries": entries, "tails": tails, "parents": parents}
        return jobs

    def _next_tail(self, tails: list[dict], shard: int) -> dict:
        """The tail a freed shard should run: its own first, else the
        largest straggler tail (deterministic tie-break by seq)."""
        own = [t for t in tails if t["origin"] == shard]
        if own:
            tail = own[0]
        else:
            tail = max(tails, key=lambda t: (len(t["chunk"]), -t["seq"]))
            self.counters["steals"] = self.counters.get("steals", 0) + 1
        tails.remove(tail)
        return tail

    def gather_eval(self, jobs: list[_ShardJob]) -> list[StateEval]:
        """Chunk evaluations concatenated back into submission order.

        On the stealing path, harvesting any finished primary frees its
        shard to pick up a held-back tail immediately -- the parent
        never waits on a straggler while another shard idles.  Results
        are reassembled by each piece's position in the original batch,
        so the output is bit-identical to the unsplit dispatch.
        """
        steal = self._steal
        self._steal = None
        elapsed_by_shard: dict[int, int] = {}
        if steal is None:
            evals: list[StateEval] = []
            for job, (chunk_evals, delta) in zip(jobs, self.pool.gather(jobs)):
                self._harvest(delta, "eval", job.shard, elapsed_by_shard)
                evals.extend(chunk_evals)
            self._record_imbalance(elapsed_by_shard)
            return evals

        from concurrent.futures import FIRST_COMPLETED, wait

        entries = list(steal["entries"])
        tails = list(steal["tails"])
        parents = steal["parents"]
        results: dict[int, list[StateEval]] = {}
        while entries:
            ready = [
                e for e in entries if e["job"].future is None or e["job"].future.done()
            ]
            if not ready:
                wait(
                    [e["job"].future for e in entries],
                    return_when=FIRST_COMPLETED,
                )
                continue
            for entry in ready:
                entries.remove(entry)
                ((chunk_evals, delta),) = self.pool.gather([entry["job"]])
                self._harvest(delta, "eval", entry["shard"], elapsed_by_shard)
                results[entry["seq"]] = chunk_evals
                if tails:
                    tail = self._next_tail(tails, entry["shard"])
                    job = self._submit_chunk(entry["shard"], tail["chunk"], parents)
                    entries.append(
                        {"job": job, "seq": tail["seq"], "shard": entry["shard"]}
                    )
        self._record_imbalance(elapsed_by_shard)
        evals = []
        for seq in sorted(results):
            evals.extend(results[seq])
        return evals

    def eval_round(
        self,
        states: list[PlanState],
        parents: list[PlanState] = (),
    ) -> list[StateEval]:
        """Barrier convenience: submit + gather in one call."""
        return self.gather_eval(self.submit_eval(states, list(parents)))
