"""Allocators: size classes, pooling behaviour, timing, stats."""

import dataclasses

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceOutOfMemoryError
from repro.gpusim.alloc import (
    AllocatorStats,
    CachingAllocator,
    DirectAllocator,
    size_class,
)
from repro.gpusim.clock import SimClock
from repro.gpusim.device import tesla_v100
from repro.gpusim.memory import GlobalMemory


def make_allocators(total=1 << 20):
    spec = tesla_v100()
    clock = SimClock()
    mem = GlobalMemory(total)
    return spec, clock, mem


class TestSizeClass:
    @pytest.mark.parametrize(
        "request_bytes,expected",
        [(0, 256), (1, 256), (256, 256), (257, 512), (1000, 1024), (4096, 4096)],
    )
    def test_rounding(self, request_bytes, expected):
        assert size_class(request_bytes) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            size_class(-1)


class TestDirectAllocator:
    def test_alloc_free_cycle(self):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        buf = alloc.alloc(1000)
        assert mem.used_bytes == 1024
        alloc.free(buf)
        assert mem.used_bytes == 0
        assert not buf.alive

    def test_every_alloc_pays_driver_latency(self):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        for _ in range(5):
            alloc.free(alloc.alloc(1000))
        expected = 5 * (spec.malloc_overhead_s + spec.free_overhead_s)
        assert clock.now == pytest.approx(expected)

    def test_double_free_rejected(self):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        buf = alloc.alloc(100)
        alloc.free(buf)
        with pytest.raises(AllocationError, match="already-freed"):
            alloc.free(buf)

    def test_oom_propagates(self):
        spec, clock, mem = make_allocators(total=2048)
        alloc = DirectAllocator(spec, mem, clock)
        alloc.alloc(1024)
        with pytest.raises(DeviceOutOfMemoryError):
            alloc.alloc(2048)

    def test_alloc_like_shapes(self):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        buf = alloc.alloc_like((4, 8), np.float64)
        assert buf.array().shape == (4, 8)
        assert buf.nbytes >= 4 * 8 * 8

    def test_live_buffer_count(self):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        a = alloc.alloc(100)
        b = alloc.alloc(100)
        assert alloc.live_buffers == 2
        alloc.free(a)
        assert alloc.live_buffers == 1
        alloc.free(b)


class TestCachingAllocator:
    def test_pool_hit_on_same_class(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        buf = alloc.alloc(1000)
        alloc.free(buf)
        buf2 = alloc.alloc(900)  # same 1024 class
        assert alloc.stats.pool_hits == 1
        assert alloc.stats.pool_misses == 1
        assert buf2.nbytes == 1024

    def test_pool_hit_does_not_touch_device_memory(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        alloc.free(alloc.alloc(1000))
        used = mem.used_bytes
        alloc.alloc(1000)
        assert mem.used_bytes == used  # reused the pooled block

    def test_pool_hit_is_cheap(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        alloc.free(alloc.alloc(1000))
        t0 = clock.now
        alloc.alloc(1000)
        assert clock.now - t0 < spec.malloc_overhead_s / 10

    def test_miss_on_larger_class(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        alloc.free(alloc.alloc(1000))
        alloc.alloc(5000)
        assert alloc.stats.pool_misses == 2

    def test_reused_block_is_zeroed_with_new_shape(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        buf = alloc.alloc_like((10,), np.float32)
        buf.array()[:] = 7.0
        alloc.free(buf)
        buf2 = alloc.alloc_like((5, 2), np.float32)
        assert buf2.array().shape == (5, 2)
        assert np.all(buf2.array() == 0.0)

    def test_pooled_bytes_accounting(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        a = alloc.alloc(1000)
        b = alloc.alloc(3000)
        alloc.free(a)
        alloc.free(b)
        assert alloc.pooled_bytes == 1024 + 4096

    def test_release_all_returns_memory(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        alloc.free(alloc.alloc(1000))
        alloc.release_all()
        assert mem.used_bytes == 0
        assert alloc.pooled_bytes == 0

    def test_hit_rate(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        for _ in range(4):
            alloc.free(alloc.alloc(512))
        assert alloc.stats.hit_rate == pytest.approx(3 / 4)

    def test_double_free_rejected(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        buf = alloc.alloc(128)
        alloc.free(buf)
        with pytest.raises(AllocationError):
            alloc.free(buf)

    def test_steady_state_iteration_is_driver_free(self):
        """The paper's per-iteration L/G allocations become pure pool hits."""
        spec, clock, mem = make_allocators(total=1 << 22)
        alloc = CachingAllocator(spec, mem, clock)
        # warm-up iteration
        l1, g1 = alloc.alloc(8192), alloc.alloc(8192)
        alloc.free(l1)
        alloc.free(g1)
        misses = alloc.stats.pool_misses
        for _ in range(100):
            l, g = alloc.alloc(8192), alloc.alloc(8192)
            alloc.free(l)
            alloc.free(g)
        assert alloc.stats.pool_misses == misses


class TestAllocatorStats:
    """``copy`` and ``since`` are spelled out field by field for speed; these
    iterate ``dataclasses.fields`` so a counter added later cannot be
    silently dropped by either."""

    @staticmethod
    def distinct(offset: int) -> AllocatorStats:
        return AllocatorStats(
            **{
                f.name: offset + 10 * i
                for i, f in enumerate(dataclasses.fields(AllocatorStats))
            }
        )

    def test_copy_covers_every_field_and_is_independent(self):
        stats = self.distinct(1)
        snapshot = stats.copy()
        assert snapshot is not stats
        for f in dataclasses.fields(AllocatorStats):
            assert getattr(snapshot, f.name) == getattr(stats, f.name), f.name
        stats.allocs += 5
        assert snapshot.allocs == stats.allocs - 5

    def test_since_subtracts_every_field(self):
        before, now = self.distinct(1), self.distinct(7)
        delta = now.since(before)
        for f in dataclasses.fields(AllocatorStats):
            assert getattr(delta, f.name) == 6, f.name

    def test_since_then_add_round_trips(self):
        before, now = self.distinct(2), self.distinct(9)
        rebuilt = before.copy()
        rebuilt.add(now.since(before))
        assert rebuilt == now

    def test_since_matches_a_live_allocator(self):
        spec, clock, mem = make_allocators()
        alloc = CachingAllocator(spec, mem, clock)
        alloc.free(alloc.alloc(1000))
        before = alloc.stats.copy()
        alloc.free(alloc.alloc(1000))  # pool hit
        alloc.alloc(5000)  # pool miss
        delta = alloc.stats.since(before)
        assert delta == AllocatorStats(
            allocs=2,
            frees=1,
            pool_hits=1,
            pool_misses=1,
            bytes_requested=6000,
            bytes_reserved=size_class(5000),
        )

    @pytest.mark.parametrize("shape", [(), (7,), (5, 3), (1, 0)])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_alloc_like_sizes_match_numpy(self, shape, dtype):
        spec, clock, mem = make_allocators()
        alloc = DirectAllocator(spec, mem, clock)
        buf = alloc.alloc_like(shape, dtype)
        expected = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        assert alloc.stats.bytes_requested == expected
        assert buf.shape == shape
        assert buf.nbytes == size_class(expected)
