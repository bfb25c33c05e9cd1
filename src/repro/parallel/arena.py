"""Content-addressed shared-memory tensor plane.

The distributed beam solve (DESIGN.md §13) ships a *compiled problem*
-- multi-megabyte immutable numpy tensors -- into its shard processes.
Where POSIX shared memory is missing it does so by pickling the
prologue payload into every worker on every solve (and again on every
respawn); where :func:`arena_available` finds it, the arena replaces
that with **zero-copy attachment**: the parent publishes each problem's
arrays once into a POSIX shared-memory segment named by a SHA-256
content key, and workers map the segment read-only -- the broadcast
payload shrinks to the key plus small per-solve deltas (deadline, fault
metadata).

Layout of one segment (all offsets 64-byte aligned)::

    [ 8B magic "DECOARN1" | 1B sealed | 3B pad | 4B meta length ]
    [ meta JSON: per-array name/dtype/shape/offset, free-form extras ]
    [ array 0 bytes ] [ array 1 bytes ] ...

The ``sealed`` byte is written *last*: a concurrent attacher that races
a publisher either sees ``sealed == 1`` (every array byte is in place)
or backs off.  Content addressing makes publish idempotent -- two
processes publishing the same key write identical bytes, so the loser
of a ``FileExistsError`` race simply attaches the winner's segment.

Lifetime: the parent-side :class:`TensorArena` owns its segments (LRU,
``close()``/finalizer unlinks them); attachers own only their mapping
(:class:`AttachedSegment`, closed on LRU eviction or process exit).  A
SIGKILL'd attacher leaks nothing: the kernel drops its mapping and the
segment itself belongs to the publisher.

``multiprocessing.resource_tracker`` discipline (Python < 3.13 registers
every open, including mere attaches, and ``unlink()`` unregisters): our
worker processes inherit the parent's tracker, whose per-name cache is a
*set*, so the create/attach registrations collapse to one entry and the
single ``unlink()`` balances it.  Nothing here unregisters manually --
an extra unregister would evict the publisher's entry and make the
tracker print ``KeyError`` noise on the real unlink, and it would also
forfeit the tracker's cleanup of segments leaked by a crashed parent.
"""

from __future__ import annotations

import hashlib
import json
import struct
import weakref
from collections import OrderedDict
from typing import Mapping

import numpy as np

__all__ = [
    "ArenaError",
    "AttachedSegment",
    "TensorArena",
    "arena_available",
    "attach_segment",
    "content_key",
    "publish_segment",
    "segment_name",
    "unlink_segment",
]

#: Bump when the segment layout changes: the version rides the content
#: key, so readers can never misparse a segment from an older layout.
_LAYOUT_VERSION = b"arena-v1"
_MAGIC = b"DECOARN1"
_ALIGN = 64
#: magic (8s) | sealed flag (B) | 3 pad | meta JSON length (I)
_HEADER = struct.Struct("<8sB3xI")


class ArenaError(RuntimeError):
    """A shared-memory segment is missing, unsealed, or malformed."""


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def segment_name(key: str) -> str:
    """OS-level shm name for a content key (short: macOS caps at 31)."""
    return "deco" + key[:24]


# Availability ---------------------------------------------------------------

_available: bool | None = None


def arena_available() -> bool:
    """Whether this environment supports POSIX shared memory (probed once).

    Restricted sandboxes (no ``/dev/shm``, seccomp'd ``shm_open``) fail
    the probe; callers fall back to the pickled-prologue path.

    Call this in the parent **before forking workers**: the probe starts
    the ``multiprocessing`` resource tracker, so children inherit the
    parent's tracker instead of each forking their own.  A
    worker-private tracker is a hazard, not just noise -- its pipe dies
    with the worker, at which point it "cleans up" (unlinks!) segments
    the parent still serves to other workers.
    """
    global _available
    if _available is None:
        try:
            from multiprocessing import resource_tracker, shared_memory

            resource_tracker.ensure_running()
            probe = shared_memory.SharedMemory(create=True, size=_ALIGN)
            try:
                probe.buf[:8] = _MAGIC
                _available = bytes(probe.buf[:8]) == _MAGIC
            finally:
                probe.close()
                probe.unlink()
        except Exception:
            _available = False
    return _available


# Content addressing ---------------------------------------------------------


def content_key(arrays: Mapping[str, np.ndarray], extra: bytes = b"") -> str:
    """SHA-256 over array names, dtypes, shapes and raw bytes (+ extras).

    Two problems get the same key iff every hosted array is bitwise
    identical and their non-array metadata (``extra``) matches -- the
    invariant that makes attach-instead-of-recompute sound.
    """
    h = hashlib.sha256(_LAYOUT_VERSION)
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.data.cast("B") if arr.size else b"")
    h.update(extra)
    return h.hexdigest()


# Publishing -----------------------------------------------------------------


def publish_segment(
    key: str, arrays: Mapping[str, np.ndarray], meta: Mapping[str, object] | None = None
):
    """Write ``arrays`` (+ JSON-able ``meta``) into a new sealed segment.

    Returns the owning ``SharedMemory`` handle (caller closes/unlinks).
    Raises ``FileExistsError`` when the key is already published --
    content addressing means the existing segment holds the same bytes,
    so callers attach instead.
    """
    from multiprocessing import shared_memory

    entries = []
    payload: list[tuple[int, np.ndarray]] = []
    offset = 0  # relative to data start; patched after meta is sized
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        offset = _align(offset)
        entries.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        )
        payload.append((offset, arr))
        offset += arr.nbytes
    doc = {"entries": entries, "meta": dict(meta or {})}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    data_start = _align(_HEADER.size + len(blob))
    total = max(data_start + offset, _ALIGN)

    shm = shared_memory.SharedMemory(name=segment_name(key), create=True, size=total)
    try:
        buf = shm.buf
        _HEADER.pack_into(buf, 0, _MAGIC, 0, len(blob))
        buf[_HEADER.size : _HEADER.size + len(blob)] = blob
        for rel, arr in payload:
            start = data_start + rel
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=start)
            view[...] = arr
            del view  # release the buffer export before any close()
        buf[8] = 1  # seal last: attachers only trust sealed segments
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except Exception:
            pass
        raise
    return shm


def unlink_segment(key: str) -> bool:
    """Best-effort unlink of a published segment by key (True if it was)."""
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=segment_name(key))
    except Exception:
        return False
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except Exception:
        return False
    return True


# Attaching ------------------------------------------------------------------


def _close_quietly(shm) -> None:
    # Finalizer-safe: close() raises BufferError while numpy views still
    # export the mmap; destruction order at gc time is unspecified, and
    # the mapping dies with the process regardless.
    try:
        shm.close()
    except Exception:
        pass


class AttachedSegment:
    """A reader's zero-copy view of one published segment.

    ``arrays`` maps entry name to a read-only ndarray aliasing the
    shared mapping -- no bytes are copied.  Keep the segment alive for
    as long as any of its arrays is in use; :meth:`close` drops the
    mapping (tolerating live views), and a finalizer does the same for
    abandoned instances.
    """

    __slots__ = ("key", "meta", "arrays", "nbytes", "_shm", "_finalizer", "__weakref__")

    def __init__(self, key: str, shm, arrays: dict[str, np.ndarray], meta: dict):
        self.key = key
        self.meta = meta
        self.arrays = arrays
        self.nbytes = shm.size
        self._shm = shm
        self._finalizer = weakref.finalize(self, _close_quietly, shm)

    def close(self) -> None:
        self._finalizer.detach()
        _close_quietly(self._shm)


def attach_segment(key: str) -> AttachedSegment:
    """Map a published segment read-only; raises :class:`ArenaError`.

    Missing key, an unsealed segment (publisher still writing or died
    mid-write) and a foreign/corrupt header all raise -- callers fall
    back to computing the data locally.
    """
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=segment_name(key))
    except Exception as exc:
        raise ArenaError(f"no shared segment for key {key[:12]}...: {exc}") from exc
    try:
        magic, sealed, meta_len = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            raise ArenaError(f"segment {key[:12]}... has a foreign header")
        if sealed != 1:
            raise ArenaError(f"segment {key[:12]}... is not sealed yet")
        doc = json.loads(bytes(shm.buf[_HEADER.size : _HEADER.size + meta_len]))
        data_start = _align(_HEADER.size + meta_len)
        arrays: dict[str, np.ndarray] = {}
        for entry in doc["entries"]:
            arr = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=shm.buf,
                offset=data_start + entry["offset"],
            )
            arr.setflags(write=False)
            arrays[entry["name"]] = arr
        return AttachedSegment(key, shm, arrays, doc.get("meta", {}))
    except ArenaError:
        _close_quietly(shm)
        raise
    except Exception as exc:
        _close_quietly(shm)
        raise ArenaError(f"segment {key[:12]}... is malformed: {exc}") from exc


# Parent-side publisher ------------------------------------------------------


class TensorArena:
    """Owns published segments with LRU lifetime and publish/hit counters.

    One per sharded engine: :meth:`publish` is idempotent per
    content key; eviction and :meth:`close` unlink the segment name --
    POSIX keeps existing worker mappings valid until *they* close, so
    eviction can never invalidate an in-flight solve.
    """

    def __init__(self, capacity: int = 6):
        self.capacity = max(1, int(capacity))
        self._segments: OrderedDict[str, object] = OrderedDict()
        self.counters = {
            "publishes": 0,
            "hits": 0,
            "evictions": 0,
            "failures": 0,
            "bytes_published": 0,
        }
        # Closes over the segment dict, never self (a self-reference
        # would keep the arena alive forever); runs at gc/interpreter
        # exit for arenas never close()d.
        self._finalizer = weakref.finalize(self, TensorArena._teardown, self._segments)

    @staticmethod
    def _teardown(segments: "OrderedDict[str, object]") -> None:
        for key in list(segments):
            shm = segments.pop(key)
            _close_quietly(shm)
            try:
                shm.unlink()
            except Exception:
                pass

    def __contains__(self, key: str) -> bool:
        return key in self._segments

    def publish(
        self, key: str, arrays: Mapping[str, np.ndarray], meta: Mapping[str, object] | None = None
    ) -> bool:
        """Ensure ``key`` is published; True when workers can attach it."""
        if key in self._segments:
            self._segments.move_to_end(key)
            self.counters["hits"] += 1
            return True
        if not arena_available():
            self.counters["failures"] += 1
            return False
        try:
            shm = publish_segment(key, arrays, meta)
        except FileExistsError:
            # A previous run (or a sibling process) already published this
            # content; adopt it if sealed, replace it if it never sealed.
            try:
                seg = attach_segment(key)
            except ArenaError:
                unlink_segment(key)
                try:
                    shm = publish_segment(key, arrays, meta)
                except Exception:
                    self.counters["failures"] += 1
                    return False
            else:
                seg.close()
                self.counters["hits"] += 1
                return True
        except Exception:
            self.counters["failures"] += 1
            return False
        self._segments[key] = shm
        self.counters["publishes"] += 1
        self.counters["bytes_published"] += shm.size
        while len(self._segments) > self.capacity:
            old_key, old = self._segments.popitem(last=False)
            _close_quietly(old)
            try:
                old.unlink()
            except Exception:
                pass
            self.counters["evictions"] += 1
        return True

    def stats(self) -> dict:
        out = dict(self.counters)
        out["segments"] = len(self._segments)
        out["available"] = arena_available()
        return out

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        self._finalizer.detach()
        TensorArena._teardown(self._segments)
