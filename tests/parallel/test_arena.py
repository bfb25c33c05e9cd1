"""Tests for the content-addressed shared-memory plane (repro.parallel.arena)."""

import numpy as np
import pytest

from repro.parallel.arena import (
    ArenaError,
    TensorArena,
    arena_available,
    attach_segment,
    content_key,
    publish_segment,
    segment_name,
    unlink_segment,
)

needs_shm = pytest.mark.skipif(
    not arena_available(), reason="POSIX shared memory unavailable in this sandbox"
)


def sample_arrays(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "means": rng.normal(size=(5, 3)),
        "edges": rng.integers(0, 5, size=(7, 2)).astype(np.int64),
        "scale": np.array([1.5]),
    }


@pytest.fixture
def published():
    """A sealed segment for sample_arrays(0); unlinked on teardown."""
    arrays = sample_arrays()
    key = content_key(arrays)
    shm = publish_segment(key, arrays, meta={"workflow": "montage-4"})
    yield key, arrays
    shm.close()
    unlink_segment(key)


class TestContentKey:
    def test_deterministic_and_order_insensitive(self):
        a = sample_arrays()
        same = {name: a[name] for name in reversed(sorted(a))}
        assert content_key(a) == content_key(same)
        assert len(content_key(a)) == 64  # hex sha256

    def test_sensitive_to_bytes_shape_dtype_name_extra(self):
        base = sample_arrays()
        key = content_key(base)

        flipped = sample_arrays()
        flipped["means"] = flipped["means"] + 1e-12
        assert content_key(flipped) != key

        reshaped = sample_arrays()
        reshaped["means"] = reshaped["means"].reshape(3, 5)
        assert content_key(reshaped) != key

        recast = sample_arrays()
        recast["edges"] = recast["edges"].astype(np.int32)
        assert content_key(recast) != key

        renamed = sample_arrays()
        renamed["means2"] = renamed.pop("means")
        assert content_key(renamed) != key

        assert content_key(base, extra=b"faults=1") != key

    def test_empty_array_is_hashable(self):
        key = content_key({"empty": np.empty((0, 4))})
        assert len(key) == 64


@needs_shm
class TestPublishAttach:
    def test_roundtrip_is_bitwise_and_zero_copy(self, published):
        key, arrays = published
        seg = attach_segment(key)
        try:
            assert set(seg.arrays) == set(arrays)
            for name, arr in arrays.items():
                got = seg.arrays[name]
                assert got.dtype == arr.dtype and got.shape == arr.shape
                np.testing.assert_array_equal(got, arr)
                # Zero-copy: the view aliases the mapping, read-only.
                assert not got.flags.writeable
                assert not got.flags.owndata
            assert seg.meta == {"workflow": "montage-4"}
        finally:
            seg.close()

    def test_double_publish_raises_file_exists(self, published):
        key, arrays = published
        with pytest.raises(FileExistsError):
            publish_segment(key, arrays)

    def test_attach_missing_key_raises(self):
        with pytest.raises(ArenaError, match="no shared segment"):
            attach_segment("f" * 64)

    def test_attach_unsealed_segment_raises(self):
        from multiprocessing import shared_memory

        key = "0" * 64
        # A publisher that died mid-write: header present, sealed == 0.
        shm = shared_memory.SharedMemory(
            name=segment_name(key), create=True, size=64
        )
        try:
            shm.buf[:8] = b"DECOARN1"
            with pytest.raises(ArenaError, match="not sealed"):
                attach_segment(key)
        finally:
            shm.close()
            shm.unlink()

    def test_attach_foreign_header_raises(self):
        from multiprocessing import shared_memory

        key = "1" * 64
        shm = shared_memory.SharedMemory(
            name=segment_name(key), create=True, size=64
        )
        try:
            shm.buf[:8] = b"NOTDECO!"
            with pytest.raises(ArenaError, match="foreign header"):
                attach_segment(key)
        finally:
            shm.close()
            shm.unlink()

    def test_unlink_segment_reports_outcome(self):
        arrays = sample_arrays(3)
        key = content_key(arrays)
        shm = publish_segment(key, arrays)
        shm.close()
        assert unlink_segment(key) is True
        assert unlink_segment(key) is False
        with pytest.raises(ArenaError):
            attach_segment(key)


@needs_shm
class TestTensorArena:
    def test_publish_is_idempotent_per_key(self):
        arena = TensorArena()
        try:
            arrays = sample_arrays(5)
            key = content_key(arrays)
            assert arena.publish(key, arrays)
            assert arena.publish(key, arrays)  # cached: no second segment
            assert key in arena
            stats = arena.stats()
            assert stats["publishes"] == 1
            assert stats["hits"] == 1
            assert stats["segments"] == 1
            assert stats["bytes_published"] > 0
        finally:
            arena.close()

    def test_lru_eviction_unlinks_oldest(self, monkeypatch):
        monkeypatch.setattr(TensorArena, "CAPACITY", 2)
        arena = TensorArena()
        try:
            keys = []
            for seed in range(3):
                arrays = sample_arrays(10 + seed)
                key = content_key(arrays)
                keys.append(key)
                assert arena.publish(key, arrays)
            assert arena.stats()["evictions"] == 1
            assert keys[0] not in arena
            with pytest.raises(ArenaError):
                attach_segment(keys[0])  # evicted name is gone from the OS
            for key in keys[1:]:
                attach_segment(key).close()
        finally:
            arena.close()

    def test_adopts_foreign_segment_with_same_key(self):
        arrays = sample_arrays(20)
        key = content_key(arrays)
        shm = publish_segment(key, arrays)  # "another process" published it
        arena = TensorArena()
        try:
            assert arena.publish(key, arrays)
            assert arena.stats()["hits"] == 1
            assert arena.stats()["publishes"] == 0
        finally:
            arena.close()
            shm.close()
            unlink_segment(key)

    def test_close_unlinks_everything(self):
        arena = TensorArena()
        arrays = sample_arrays(30)
        key = content_key(arrays)
        arena.publish(key, arrays)
        arena.close()
        with pytest.raises(ArenaError):
            attach_segment(key)
        arena.close()  # idempotent


def test_arena_available_is_cached_bool():
    first = arena_available()
    assert isinstance(first, bool)
    assert arena_available() is first
