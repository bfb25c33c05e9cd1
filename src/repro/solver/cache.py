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

Every memo here groups or indexes its entries by token, so
``forget(token)`` drops one sample tensor's entries at a cost
proportional to that token's own entries.  The engine calls it when a
tensor can no longer be asked for (DESIGN.md §17, "What is memoised
where"); the ``MAX_ENTRIES`` caps are backstops for callers that never
forget.
"""

from __future__ import annotations

import heapq
import math
import mmap
from collections import OrderedDict
from typing import Callable, Collection

import numpy as np

from repro.common.errors import SolverError
from repro.solver.state import as_block

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

    #: Distinct ``(name, dtype)`` backings kept alive; one more clears the pool.
    MAX_BUFFERS = 32

    def __init__(self):
        self._bufs: dict[tuple[str, np.dtype], np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._bufs)

    def nbytes(self) -> int:
        """Approximate memory pinned by the pooled backings."""
        return sum(b.nbytes for b in self._bufs.values())

    def take(self, name: str, shape: tuple[int, ...], dtype=_FLOAT64) -> np.ndarray:
        """A pooled scratch view of ``shape`` (contents undefined)."""
        # Called ~2000 times per Montage-8 solve: no array round trip
        # (`np.prod`) for a product of two or three ints, and no dtype
        # construction when the caller passes an ``np.dtype``.
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        key = (name, dt)
        size = math.prod(shape)
        backing = self._bufs.get(key)
        if backing is None or backing.size < size:
            if backing is None and len(self._bufs) >= self.MAX_BUFFERS:
                self._bufs.clear()
            backing = np.empty(max(1, size), dtype=dt)
            self._bufs[key] = backing
        return backing[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every pooled backing array."""
        self._bufs.clear()


class MakespanCache:
    """Bounded LRU memo of per-state rows: makespan samples or moments.

    The vectorized backend's instance holds ``(S,)`` Monte Carlo
    makespan rows; the search's tier-0 instance holds ``(2,)`` ``(mean,
    variance)`` rows under the same keys.  Rows are held per sample
    token, so :meth:`forget` drops a token's rows in one step; past
    :attr:`MAX_ENTRIES` the least recently used token loses its least
    recently used row first.
    """

    #: Cap on cached rows.  An entry is its row plus its state key, 2
    #: bytes per task: at 32768 entries, 150 Monte Carlo samples and a
    #: 680-task workflow that is ~84 MB (1,200 B of row and 1,360 B of
    #: key each), and ~45 MB of moment entries, almost all key -- sized
    #: for sweep workloads, far above any single search's state count.
    MAX_ENTRIES = 32_768

    def __init__(self):
        self.hits = 0
        self.misses = 0
        # sample token -> (state key -> read-only row), both LRU first.
        self._rows: OrderedDict[int, OrderedDict[bytes, np.ndarray]] = OrderedDict()
        self._entries = 0

    def __len__(self) -> int:
        return self._entries

    def counters(self) -> dict[str, int]:
        """Current hit/miss/size counters (monotone except ``entries``)."""
        return {"hits": self.hits, "misses": self.misses, "entries": self._entries}

    def nbytes(self) -> int:
        """Approximate memory held by the cached rows and their state keys."""
        return sum(
            len(key) + row.nbytes for rows in self._rows.values() for key, row in rows.items()
        )

    def clear(self) -> None:
        self._rows.clear()
        self._entries = 0

    def forget(self, token: int) -> None:
        """Drop every row of sample token ``token``."""
        self._entries -= len(self._rows.pop(token, ()))

    # ------------------------------------------------------------------

    def fetch(
        self,
        problem,
        block,
        compute: Callable[[object, object], np.ndarray],
    ) -> np.ndarray:
        """``(B, S)`` makespan samples for a state block, memoized.

        ``block`` is a :class:`~repro.solver.state.StateBlock` (or states
        :func:`~repro.solver.state.as_block` stacks); its rows are looked
        up under one key list.  ``compute(problem,
        missing_block)`` is invoked once for the rows not in the cache (a
        single backend batch, the whole block when none hit); each of
        its rows is stored as its own entry and the full batch is
        reassembled in input order.
        """
        block = as_block(block)
        token = problem.sample_token
        keys = block.keys
        rows = self._rows.get(token)
        if rows is None:
            found = [None] * len(keys)
        else:
            self._rows.move_to_end(token)
            found = [rows.get(key) for key in keys]
        missing = [i for i, row in enumerate(found) if row is None]
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        for key, row in zip(keys, found):
            if row is not None:
                rows.move_to_end(key)
        if not missing:
            return np.stack(found)

        whole = len(missing) == len(keys)
        fresh = np.asarray(compute(problem, block if whole else block.take(missing)))
        # Owned row copies: a view would keep the whole computed batch
        # alive behind one surviving row, and would change under the
        # cache if ``compute`` reuses its output buffer.
        owned = [row.copy() for row in fresh]
        for row in owned:
            row.setflags(write=False)
        if rows is None:
            rows = self._rows[token] = OrderedDict()
        missing_keys = [keys[i] for i in missing]
        held = len(rows)
        rows.update(zip(missing_keys, owned))
        self._entries += len(rows) - held
        if len(rows) - held < len(missing_keys):
            # A key the block repeats is most recent at its last occurrence.
            for key in missing_keys:
                rows.move_to_end(key)
        while self._entries > self.MAX_ENTRIES:
            oldest, lru = next(iter(self._rows.items()))
            lru.popitem(last=False)
            self._entries -= 1
            if not lru:
                del self._rows[oldest]
        if whole:
            return fresh.copy()
        for i, row in zip(missing, owned):
            found[i] = row
        return np.stack(found)


#: Byte cap on the (slot, child) pairs one delta-kernel launch may hold
#: recomputed at a time.  A beam iteration of ~100 children on a
#: 680-task workflow recomputes ~12k pair rows of S float64 samples
#: (14 MB at S = 150; half that in float32) where the dense ``((N+1) * B, S)`` layout needed
#: 82 MB; 8 MB keeps a whole iteration of every workflow up to Montage-4
#: in one launch, cuts Montage-8 into two, and bounds what a batch of
#: any size can add to the resident set.
LAUNCH_WORKSPACE_BYTES = 8 << 20


class FrontierSlab:
    """The frontiers of one ``(N, S)`` shape and dtype, plus the delta kernel's workspace.

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

    def __init__(self, capacity: int, num_tasks: int, num_samples: int, dtype: np.dtype):
        self.stride = num_tasks + 1
        self.capacity = capacity
        itemsize = np.dtype(dtype).itemsize
        # Never fewer rows than one state can have pairs.
        workspace_rows = max(self.stride, LAUNCH_WORKSPACE_BYTES // (itemsize * num_samples))
        shape = (capacity * self.stride + workspace_rows, num_samples)
        # Private, so a forked child cannot write into its parent's
        # frontiers (POSIX maps shared by default; Windows has no flags).
        private = (
            {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_PRIVATE")
            else {}
        )
        backing = mmap.mmap(-1, shape[0] * shape[1] * itemsize, **private)
        self.rows = np.frombuffer(backing, dtype=dtype).reshape(shape)
        self.free = list(range(capacity))  # a heap: lowest slot first
        self.slots_touched = 0
        self.workspace_touched = 0

    @property
    def workspace_start(self) -> int:
        """The first workspace row of :attr:`rows`."""
        return self.capacity * self.stride

    @property
    def layout(self) -> tuple[tuple[int, int], np.dtype]:
        """``((N+1, S), dtype)``: the rows, samples and sample dtype of one slot."""
        return (self.stride, self.rows.shape[1]), self.rows.dtype

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
    and stored in its token's :class:`FrontierSlab`.  :attr:`MAX_ENTRIES`
    bounds the frontiers resident across all tokens.  Tokens of one
    ``(N, S)`` shape share a slab: a warm engine that moves on to the
    next same-sized workflow (a service worker's next job) evicts the
    old token's frontiers into the slots the new one takes, so it
    writes pages it has already touched instead of faulting in a fresh
    mapping per job -- ~900 first-touch faults and 4 ms of kernel time
    on a 60 ms Montage-1 solve, the one part of a solve whose cost is
    the host's, not ours.  For the same reason the slab a token leaves
    empty (its last frontier evicted or forgotten) is kept as the
    *spare*, which the next token of its shape takes over; the next
    slab emptied replaces it.

    The search stores frontiers only for the states it is about to
    expand, so :attr:`MAX_ENTRIES` is the beam the search can still
    chain from: ``GenericSearch.BEAM_WIDTH + GenericSearch.EXPAND_PER_ITER``.

    The context also memoizes the sample-prefix *screening problems*
    (one tiny derived :class:`CompiledProblem` per base token), so the
    two-stage fidelity screen does not re-slice the tensor every
    iteration.  A token's screening problem lives until
    :meth:`forget`: tier 1 keeps the deadline it was first built with.
    """

    MAX_ENTRIES = 32

    def __init__(self):
        self.hits = 0
        self.misses = 0
        # (sample token, state key) -> slot in the token's slab, LRU first.
        self._slots: OrderedDict[tuple[int, bytes], int] = OrderedDict()
        # Every token with a resident frontier -> its keys in ``_slots``
        # and its shape's slab.
        self._keys: dict[int, set[bytes]] = {}
        self._slabs: dict[int, FrontierSlab] = {}
        # The last slab a token left empty, kept for the next of its shape.
        self._spare: FrontierSlab | None = None
        # base sample_token -> (prefix length, derived problem)
        self._screen_problems: dict[int, tuple[int, object]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._slots)}

    def nbytes(self) -> int:
        """Memory the slabs have touched: frontier slots plus workspace."""
        slabs = {id(slab): slab for slab in self._slabs.values()}  # shared ones once
        if self._spare is not None:
            slabs[id(self._spare)] = self._spare
        return sum(slab.nbytes() for slab in slabs.values())

    def screen_stats(self) -> dict[str, int]:
        """The screening problems held and the bytes of their prefix tensors."""
        return {
            "screen_entries": len(self._screen_problems),
            "screen_nbytes": sum(
                derived.tensor.nbytes + derived.tensor_taskmajor.nbytes
                for _, derived in self._screen_problems.values()
            ),
        }

    def clear(self) -> None:
        self._slots.clear()
        self._keys.clear()
        self._slabs.clear()
        self._spare = None
        self._screen_problems.clear()

    def forget(self, token: int) -> None:
        """Drop ``token``'s frontiers and screening problem."""
        for key in list(self._keys.get(token, ())):
            self.discard(token, key)
        self._screen_problems.pop(token, None)

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

    def find_all(self, token: int, keys: list[bytes]) -> list[int | None]:
        """:meth:`find` of every key, in order (the same counts and LRU moves)."""
        slots = self._slots
        found = [slots.get((token, key)) for key in keys]
        for key, slot in zip(keys, found):
            if slot is not None:
                slots.move_to_end((token, key))
        misses = found.count(None)
        self.misses += misses
        self.hits += len(found) - misses
        return found

    def peek(self, token: int, key: bytes) -> bool:
        """Whether a frontier is cached (no counter side effects)."""
        return (token, key) in self._slots

    def reserve(
        self,
        token: int,
        key: bytes,
        num_tasks: int,
        num_samples: int,
        dtype: np.dtype,
        keep: Collection[bytes] = (),
    ) -> int | None:
        """A slot for ``key``'s frontier, which the caller then writes in place.

        ``dtype`` is the problem's sample dtype, which the slab's rows take.

        Evicts least-recently-used frontiers to stay within
        :attr:`MAX_ENTRIES`, but never one of ``token``'s whose key is in
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
        layout = ((num_tasks + 1, num_samples), np.dtype(dtype))
        slab = self._slabs.get(token) or next(
            (slab for slab in self._slabs.values() if slab.layout == layout), None
        )
        if slab is None and self._spare is not None and self._spare.layout == layout:
            slab, self._spare = self._spare, None
        if slab is not None and slab.layout != layout:
            raise SolverError(
                f"frontier of {num_tasks} tasks x {num_samples} {np.dtype(dtype)} samples "
                f"does not fit sample token {token}'s slab"
            )
        if len(self._slots) >= self.MAX_ENTRIES:
            victim = next(
                (e for e in self._slots if e[0] != token or e[1] not in keep), None
            )
            if victim is None:
                return None
            self.discard(*victim)
            if self._spare is slab:  # the victim was the last other token in it
                self._spare = None
        if slab is None:
            slab = FrontierSlab(self.MAX_ENTRIES, num_tasks, num_samples, dtype)
        self._slabs[token] = slab
        self._keys.setdefault(token, set()).add(key)
        slot = heapq.heappop(slab.free)
        slab.slots_touched = max(slab.slots_touched, slot + 1)
        self._slots[(token, key)] = slot
        return slot

    def discard(self, token: int, key: bytes) -> None:
        """Forget ``key``'s frontier and free its slot (no-op when absent)."""
        slot = self._slots.pop((token, key), None)
        if slot is None:
            return
        slab = self._slabs[token]
        heapq.heappush(slab.free, slot)
        held = self._keys[token]
        held.discard(key)
        if not held:
            del self._keys[token], self._slabs[token]
            if slab not in self._slabs.values():  # no token left in it: the spare
                self._spare = slab

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
