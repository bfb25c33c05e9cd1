"""Evaluation memoization: makespan rows, screening problems, scratch.

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

:class:`EvalContext` memoizes tier 1's sample-prefix screening
problems, one per base sample token.

Every memo here groups or indexes its entries by token, so
``forget(token)`` drops one sample tensor's entries at a cost
proportional to that token's own entries.  The engine calls it when a
tensor can no longer be asked for (DESIGN.md §17, "What is memoised
where"); :attr:`MakespanCache.MAX_ENTRIES` is a backstop for callers
that never forget.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.solver.state import as_block

__all__ = ["MakespanCache", "EvalContext", "ScratchPool"]

_FLOAT64 = np.dtype(np.float64)


class ScratchPool:
    """Grow-only pool of named scratch buffers.

    One backing array per ``(name, dtype)``: a request for any shape
    returns a view of it, growing the backing only when the product of
    the shape exceeds what is already held.  The alternating batch and
    sample shapes of screening, full-kernel chunks and analytic propagation
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


class EvalContext:
    """The sample-prefix *screening problems* of tier 1, one per base token.

    One tiny derived :class:`CompiledProblem` per base sample token, so
    the two-stage fidelity screen does not re-slice the tensor every
    iteration.  A token's screening problem lives until :meth:`forget`:
    tier 1 keeps the deadline it was first built with.
    """

    def __init__(self):
        # base sample_token -> (prefix length, derived problem)
        self._screen_problems: dict[int, tuple[int, object]] = {}

    def __len__(self) -> int:
        return len(self._screen_problems)

    def stats(self) -> dict[str, int]:
        """The screening problems held and the bytes of their prefix tensors."""
        return {
            "entries": len(self._screen_problems),
            "nbytes": sum(
                derived.tensor.nbytes + derived.tensor_taskmajor.nbytes
                for _, derived in self._screen_problems.values()
            ),
        }

    def clear(self) -> None:
        self._screen_problems.clear()

    def forget(self, token: int) -> None:
        """Drop ``token``'s screening problem."""
        self._screen_problems.pop(token, None)

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
