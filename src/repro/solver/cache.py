"""Evaluation memoization: makespan rows and finish-time frontiers.

Deadline sweeps (Fig. 8's percentile sweep, Fig. 11's tight/medium/
loose settings) re-solve the *same* compiled tensor many times -- only
the deadline/percentile of the feasibility test changes, not a single
makespan sample.  :class:`MakespanCache` exploits that: it memoizes the
``(S,)`` per-state makespan-sample rows keyed by
``(problem.sample_token, state.key)``, so any state the search
revisits -- across :meth:`CompiledProblem.with_deadline` derivations,
warm-start ladders, or whole re-solves -- costs one dictionary lookup
instead of a DAG propagation.

``sample_token`` is a process-wide monotone generation counter stamped
onto every :class:`~repro.solver.backends.CompiledProblem` whose sample
tensor is fresh; derivations that *share* the tensor
(:meth:`with_deadline`) inherit the token, derivations that rewrite it
(:meth:`with_faults`, :meth:`with_sample_prefix`) get a new one.  Unlike
the earlier ``id(tensor)`` keys, tokens can never collide between two
live problems (ids recycle when the allocator reuses row space) and
need no object-pinning side channel to stay correct.

:class:`EvalContext` is the incremental evaluator's companion store: a
bounded LRU of per-state *finish-time frontiers* -- the permuted
``(N+1, S)`` finish matrix a full propagation produces, zero sentinel
row included -- keyed the same way, plus a small memo of sample-prefix
screening problems.  Frontiers of one sample token live side by side in
one row-addressable slab, so the delta kernel reads any mix of parents
in place and writes pinned frontiers in place.
"""

from __future__ import annotations

import heapq
import math
import mmap
from collections import OrderedDict
from typing import Callable, Collection, Sequence

import numpy as np

from repro.common.errors import SolverError

__all__ = ["MakespanCache", "EvalContext", "ScratchPool"]

_FLOAT64 = np.dtype(np.float64)


class ScratchPool:
    """Grow-only pool of named scratch buffers.

    One backing array per ``(name, dtype)``: a request for any shape
    returns a view of it, growing the backing only when the product of
    the shape exceeds what is already held.  The alternating batch and
    sample shapes of screening, delta launches and analytic propagation
    therefore reuse one allocation per role instead of churning the
    allocator -- reallocating multi-hundred-KB arrays every evaluation
    costs page faults that dominate the kernels at search-sized
    batches.  Buffer contents are undefined on return, and callers must
    never hold two live buffers under the same name: the pool makes its
    owner non-reentrant (one evaluation at a time), matching a CUDA
    stream.  Backends in one search share a single pool, so the tiered
    evaluators do not each pin their own copies of the large buffers.
    """

    def __init__(self, max_buffers: int = 32):
        if max_buffers < 1:
            raise SolverError("max_buffers must be >= 1")
        self.max_buffers = int(max_buffers)
        self._bufs: dict[tuple[str, np.dtype], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._bufs)

    def nbytes(self) -> int:
        """Approximate memory pinned by the pooled backings."""
        return sum(b.nbytes for b in self._bufs.values())

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A pooled scratch view of ``shape`` (contents undefined)."""
        # Called ~2000 times per Montage-8 solve: no array round trip
        # (`np.prod`) for a product of two or three ints, and no dtype
        # construction for the default.
        dt = _FLOAT64 if dtype is np.float64 else np.dtype(dtype)
        key = (name, dt)
        size = math.prod(shape)
        backing = self._bufs.get(key)
        if backing is None or backing.size < size:
            if backing is None and len(self._bufs) >= self.max_buffers:
                self._bufs.clear()
            backing = np.empty(max(1, size), dtype=dt)
            self._bufs[key] = backing
        return backing[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every pooled backing array."""
        self._bufs.clear()


class MakespanCache:
    """Bounded LRU memo of per-state makespan sample rows.

    Parameters
    ----------
    max_entries:
        Cap on cached ``(S,)`` rows.  At the default 32768 rows and 150
        Monte Carlo samples this is ~40 MB -- sized for sweep workloads,
        far above any single search's state count.
    """

    def __init__(self, max_entries: int = 32_768):
        if max_entries < 1:
            raise SolverError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        # (sample token, state key) -> read-only (S,) float row.
        self._rows: OrderedDict[tuple[int, bytes], np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._rows)

    def counters(self) -> dict[str, int]:
        """Current hit/miss/size counters (monotone except ``entries``)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._rows)}

    def nbytes(self) -> int:
        """Approximate memory held by the cached rows."""
        return sum(row.nbytes for row in self._rows.values())

    def clear(self) -> None:
        self._rows.clear()

    # ------------------------------------------------------------------

    def fetch(
        self,
        problem,
        states: Sequence,
        compute: Callable[[object, list], np.ndarray],
    ) -> np.ndarray:
        """``(B, S)`` makespan samples for ``states``, memoized.

        ``compute(problem, missing_states)`` is invoked once for the
        states not in the cache (a single backend batch); its rows are
        stored and the full batch is reassembled in input order.
        """
        token = problem.sample_token
        rows: list[np.ndarray | None] = [None] * len(states)
        missing: list = []
        missing_at: list[int] = []
        for i, state in enumerate(states):
            key = (token, state.key)
            row = self._rows.get(key)
            if row is None:
                missing.append(state)
                missing_at.append(i)
            else:
                self._rows.move_to_end(key)
                rows[i] = row
        self.hits += len(states) - len(missing)
        self.misses += len(missing)

        if missing:
            fresh = np.asarray(compute(problem, missing))
            for j, i in enumerate(missing_at):
                # An owned copy: a view would keep the whole computed
                # batch alive behind one surviving row, and would change
                # under the cache if ``compute`` reuses its output buffer.
                row = fresh[j].copy()
                row.setflags(write=False)
                rows[i] = row
                self._store(token, states[i].key, row)
        return np.stack(rows)  # type: ignore[arg-type]

    def _store(self, token: int, key: bytes, row: np.ndarray) -> None:
        self._rows[(token, key)] = row
        self._rows.move_to_end((token, key))
        while len(self._rows) > self.max_entries:
            self._rows.popitem(last=False)


#: Byte cap on the (slot, child) pairs one delta-kernel launch may hold
#: recomputed at a time.  A beam iteration of ~100 children on a
#: 680-task workflow recomputes ~12k pair rows of S float64 samples
#: (14 MB at S = 150) where the dense ``((N+1) * B, S)`` layout needed
#: 82 MB; 8 MB keeps a whole iteration of every workflow up to Montage-4
#: in one launch, cuts Montage-8 into two, and bounds what a batch of
#: any size can add to the resident set.
LAUNCH_WORKSPACE_BYTES = 8 << 20


class FrontierSlab:
    """The frontiers of one ``(N, S)`` shape, plus the delta kernel's workspace.

    ``rows`` is one ``(capacity * (N+1) + workspace_rows, S)`` matrix:
    frontier slot ``f`` occupies rows ``f * stride .. f * stride + N``
    (the last one is the zero sentinel row padded parent slots read),
    and the tail holds the pairs a launch recomputes.  Keeping both in
    one matrix is what makes every gather of the kernel a single row
    ``take`` whichever mix of parents' rows and recomputed rows it
    reads.  The matrix is allocated at full capacity up front, as a
    private anonymous mapping: a page costs nothing until it is first
    written, and slots are handed out lowest first, so the touched
    prefix tracks the number of frontiers held.  (``np.empty`` would
    ask for transparent huge pages at this size: the kernel then
    compacts memory on first touch -- 0.1-0.2 s on the first solve of a
    process, measured -- and rounds both touched regions up to 2 MB.)
    """

    __slots__ = ("rows", "stride", "capacity", "free", "slots_touched", "workspace_touched")

    def __init__(self, capacity: int, num_tasks: int, num_samples: int):
        self.stride = num_tasks + 1
        self.capacity = capacity
        # Never fewer rows than one state can have pairs.
        workspace_rows = max(self.stride, LAUNCH_WORKSPACE_BYTES // (8 * num_samples))
        shape = (capacity * self.stride + workspace_rows, num_samples)
        # Private, so a forked child cannot write into its parent's
        # frontiers (POSIX maps shared by default; Windows has no flags).
        private = (
            {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_PRIVATE")
            else {}
        )
        backing = mmap.mmap(-1, shape[0] * shape[1] * 8, **private)
        self.rows = np.frombuffer(backing, dtype=np.float64).reshape(shape)
        self.free = list(range(capacity))  # a heap: lowest slot first
        self.slots_touched = 0
        self.workspace_touched = 0

    @property
    def workspace_start(self) -> int:
        """The first workspace row of :attr:`rows`."""
        return self.capacity * self.stride

    @property
    def shape(self) -> tuple[int, int]:
        """``(N+1, S)``: the rows and samples of one slot."""
        return self.stride, self.rows.shape[1]

    def frontier(self, slot: int) -> np.ndarray:
        """The ``(N+1, S)`` view of one slot."""
        return self.rows[slot * self.stride : (slot + 1) * self.stride]

    def nbytes(self) -> int:
        touched = self.slots_touched * self.stride + self.workspace_touched
        return touched * self.rows.shape[1] * self.rows.itemsize


class EvalContext:
    """Bounded LRU of per-state finish-time frontiers (incremental eval).

    One entry is the permuted ``(N+1, S)`` finish matrix of a fully
    propagated state -- ~1 MB for Montage-8 at 200 samples -- keyed by
    ``(sample_token, state key)`` exactly like :class:`MakespanCache`
    and stored in its token's :class:`FrontierSlab`.  ``max_entries``
    bounds the frontiers resident across all tokens; a slab is dropped
    with its last frontier.  Tokens of one ``(N, S)`` shape share a
    slab: a warm engine that moves on to the next same-sized workflow
    (a service worker's next job) evicts the old token's frontiers into
    the slots the new one takes, so it writes pages it has already
    touched instead of faulting in a fresh mapping per job -- ~900
    first-touch faults and 4 ms of kernel time on a 60 ms Montage-1
    solve, the one part of a solve whose cost is the host's, not ours.
    The search stores frontiers only for the states it is about to
    expand (the beam tip), so the default capacity comfortably covers a
    solve while bounding long-running services.

    The context also memoizes the sample-prefix *screening problems*
    (one tiny derived :class:`CompiledProblem` per base token), so the
    two-stage fidelity screen does not re-slice the tensor every
    iteration.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise SolverError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        # (sample token, state key) -> slot in the token's slab, LRU first.
        self._slots: OrderedDict[tuple[int, bytes], int] = OrderedDict()
        # Every token with a resident frontier -> its shape's slab.
        self._slabs: dict[int, FrontierSlab] = {}
        # base sample_token -> (prefix length, derived problem)
        self._screen_problems: dict[int, tuple[int, object]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._slots)}

    def nbytes(self) -> int:
        """Memory the slabs have touched: frontier slots plus workspace."""
        slabs = {id(slab): slab for slab in self._slabs.values()}  # shared ones once
        return sum(slab.nbytes() for slab in slabs.values())

    def clear(self) -> None:
        self._slots.clear()
        self._slabs.clear()
        self._screen_problems.clear()

    # ------------------------------------------------------------------

    def slab(self, token: int) -> FrontierSlab | None:
        """The slab holding ``token``'s frontiers (``None`` while it has none)."""
        return self._slabs.get(token)

    def find(self, token: int, key: bytes) -> int | None:
        """The slot of a cached frontier, or ``None`` (counts hit/miss)."""
        slot = self._slots.get((token, key))
        if slot is None:
            self.misses += 1
            return None
        self._slots.move_to_end((token, key))
        self.hits += 1
        return slot

    def peek(self, token: int, key: bytes) -> bool:
        """Whether a frontier is cached (no counter side effects)."""
        return (token, key) in self._slots

    def reserve(
        self,
        token: int,
        key: bytes,
        num_tasks: int,
        num_samples: int,
        keep: Collection[bytes] = (),
    ) -> int | None:
        """A slot for ``key``'s frontier, which the caller then writes in place.

        Evicts least-recently-used frontiers to stay within
        ``max_entries``, but never one of ``token``'s whose key is in
        ``keep`` -- the frontiers the caller's launch still reads or has
        just reserved.  Returns ``None`` when nothing else is left to
        evict; a frontier is a performance hint, so the caller simply
        goes without.
        """
        if (token, key) in self._slots:
            self._slots.move_to_end((token, key))
            return self._slots[(token, key)]
        # Looked up before the eviction, which may take the last frontier
        # of the token this one shares its slab with.
        shape = (num_tasks + 1, num_samples)
        slab = self._slabs.get(token) or next(
            (slab for slab in self._slabs.values() if slab.shape == shape), None
        )
        if slab is not None and slab.shape != shape:
            raise SolverError(
                f"frontier of {num_tasks} tasks x {num_samples} samples does not fit "
                f"sample token {token}'s slab"
            )
        if len(self._slots) >= self.max_entries:
            victim = next(
                (e for e in self._slots if e[0] != token or e[1] not in keep), None
            )
            if victim is None:
                return None
            self.discard(*victim)
        if slab is None:
            slab = FrontierSlab(self.max_entries, num_tasks, num_samples)
        self._slabs[token] = slab
        slot = heapq.heappop(slab.free)
        slab.slots_touched = max(slab.slots_touched, slot + 1)
        self._slots[(token, key)] = slot
        return slot

    def discard(self, token: int, key: bytes) -> None:
        """Forget ``key``'s frontier and free its slot (no-op when absent)."""
        slot = self._slots.pop((token, key), None)
        if slot is None:
            return
        heapq.heappush(self._slabs[token].free, slot)
        if not any(t == token for t, _ in self._slots):
            del self._slabs[token]  # the slab goes with its last token

    def get(self, token: int, key: bytes) -> np.ndarray | None:
        """The cached ``(N, S)`` frontier, or ``None`` (counts hit/miss).

        A read-only view into the slab: valid until the next frontier
        is stored.
        """
        slot = self.find(token, key)
        if slot is None:
            return None
        view = self._slabs[token].frontier(slot)[:-1]
        view.flags.writeable = False
        return view

    def put(self, token: int, key: bytes, frontier: np.ndarray) -> None:
        """Store a copy of an ``(N, S)`` frontier."""
        frontier = np.asarray(frontier)
        slot = self.reserve(token, key, *frontier.shape)
        dst = self._slabs[token].frontier(slot)
        dst[:-1] = frontier
        dst[-1] = 0.0

    # ------------------------------------------------------------------

    def screen_problem(self, problem, prefix: int):
        """The memoized sample-prefix derivation of ``problem``.

        Rebuilt (and re-memoized) when the requested prefix changes;
        the derived problem carries its own fresh ``sample_token`` so
        screening rows never mix with full-fidelity cache entries.
        """
        entry = self._screen_problems.get(problem.sample_token)
        if entry is not None and entry[0] == prefix:
            return entry[1]
        derived = problem.with_sample_prefix(prefix)
        self._screen_problems[problem.sample_token] = (prefix, derived)
        return derived
