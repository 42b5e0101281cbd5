"""Device memory allocators: direct (cudaMalloc-like) and caching.

The paper's technique (iii) replaces per-iteration ``cudaMalloc``/``cudaFree``
with a pooling allocator that grabs memory once and recycles it.  Table 4
measures the end-to-end effect at 3.7-5 %.  Two allocators reproduce the
choice:

* :class:`DirectAllocator` — every ``alloc`` pays the driver's synchronous
  malloc latency, every ``free`` pays the free latency.  This models the
  "w/ reallocation" configuration.
* :class:`CachingAllocator` — requests are rounded up to power-of-two size
  classes; freed blocks go back to a per-class free list and subsequent
  allocations of the same class are pool hits that cost only a table lookup.
  This models the "w/ caching" configuration.

Both allocators share the :class:`GlobalMemory` capacity model, so an OOM is
raised identically regardless of pooling.  The pooling logic itself is real
(exercised and unit-tested), not just a timing annotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AllocationError
from repro.gpusim.clock import SimClock
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceBuffer, GlobalMemory

__all__ = [
    "AllocatorStats",
    "DirectAllocator",
    "CachingAllocator",
    "size_class",
]

# A pool hit is a host-side hash-table lookup: tens of nanoseconds.
_POOL_HIT_OVERHEAD_S = 0.05e-6
# Returning a block to the pool is likewise a host-side list push.
_POOL_RELEASE_OVERHEAD_S = 0.05e-6

_MIN_CLASS_BYTES = 256  # CUDA allocations are 256-byte aligned.


def size_class(nbytes: int) -> int:
    """Round *nbytes* up to the allocator's size class (power of two >= 256)."""
    if nbytes < 0:
        raise ValueError("allocation size must be non-negative")
    c = _MIN_CLASS_BYTES
    while c < nbytes:
        c <<= 1
    return c


@dataclass
class AllocatorStats:
    """Counters exposed by both allocators for tests and EXPERIMENTS.md."""

    allocs: int = 0
    frees: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    bytes_requested: int = 0
    bytes_reserved: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def copy(self) -> "AllocatorStats":
        """A snapshot of the counters, for a later :meth:`since`."""
        return AllocatorStats(
            self.allocs,
            self.frees,
            self.pool_hits,
            self.pool_misses,
            self.bytes_requested,
            self.bytes_reserved,
        )

    def since(self, before: "AllocatorStats") -> "AllocatorStats":
        """The counters accrued since *before*, a :meth:`copy` taken
        earlier."""
        return AllocatorStats(
            self.allocs - before.allocs,
            self.frees - before.frees,
            self.pool_hits - before.pool_hits,
            self.pool_misses - before.pool_misses,
            self.bytes_requested - before.bytes_requested,
            self.bytes_reserved - before.bytes_reserved,
        )

    def add(self, delta: "AllocatorStats") -> None:
        """Advance every counter by *delta* (a :meth:`since` result).

        Launch-graph replay applies one captured iteration's allocator
        traffic this way instead of repeating its alloc/free calls.
        """
        self.allocs += delta.allocs
        self.frees += delta.frees
        self.pool_hits += delta.pool_hits
        self.pool_misses += delta.pool_misses
        self.bytes_requested += delta.bytes_requested
        self.bytes_reserved += delta.bytes_reserved


class _AllocatorBase:
    """Shared bookkeeping for both allocator flavours."""

    def __init__(self, spec: DeviceSpec, memory: GlobalMemory, clock: SimClock):
        self.spec = spec
        self.memory = memory
        self.clock = clock
        self.stats = AllocatorStats()
        self._live: dict[int, DeviceBuffer] = {}
        #: Optional :class:`repro.reliability.faults.FaultInjector` consulted
        #: before every allocation (may raise an injected OOM).
        self.fault_injector = None

    def _register(self, buf: DeviceBuffer) -> DeviceBuffer:
        self._live[buf.buffer_id] = buf
        return buf

    def _unregister(self, buf: DeviceBuffer) -> None:
        if buf.buffer_id not in self._live:
            raise AllocationError(
                f"free of unknown or already-freed buffer #{buf.buffer_id}"
            )
        del self._live[buf.buffer_id]

    @property
    def live_buffers(self) -> int:
        return len(self._live)

    @property
    def pressure(self) -> float:
        """Device-memory pressure as this allocator sees it (0..1).

        For the caching flavour, pooled blocks are *reserved* on the device
        but instantly reusable, so they don't count as pressure — see
        :attr:`headroom_bytes`.
        """
        if self.memory.total_bytes <= 0:
            return 1.0
        return 1.0 - self.headroom_bytes / self.memory.total_bytes

    @property
    def headroom_bytes(self) -> int:
        """Bytes this allocator could still serve without an OOM."""
        return self.memory.free_bytes

    def alloc_like(self, shape: tuple[int, ...], dtype: np.dtype) -> DeviceBuffer:
        """Allocate a buffer sized for ``shape`` of ``dtype``."""
        nbytes = int(math.prod(shape)) * np.dtype(dtype).itemsize
        return self.alloc(nbytes, shape=shape, dtype=dtype)

    # subclasses implement alloc/free
    def alloc(
        self, nbytes: int, *, shape: tuple[int, ...] | None = None, dtype=np.float32
    ) -> DeviceBuffer:  # pragma: no cover - abstract
        raise NotImplementedError

    def free(self, buf: DeviceBuffer) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class DirectAllocator(_AllocatorBase):
    """cudaMalloc/cudaFree semantics: every call hits the (modelled) driver."""

    def alloc(
        self, nbytes: int, *, shape: tuple[int, ...] | None = None, dtype=np.float32
    ) -> DeviceBuffer:
        if self.fault_injector is not None:
            self.fault_injector.on_alloc(nbytes, self.memory)
        reserved = size_class(nbytes)
        self.memory.reserve(reserved)
        self.clock.advance(self.spec.malloc_overhead_s)
        self.stats.allocs += 1
        self.stats.bytes_requested += nbytes
        self.stats.bytes_reserved += reserved
        if shape is None:
            shape = (nbytes // np.dtype(dtype).itemsize,)
        return self._register(DeviceBuffer(reserved, shape, np.dtype(dtype)))

    def free(self, buf: DeviceBuffer) -> None:
        self._unregister(buf)
        buf.retire()
        self.memory.release(buf.nbytes)
        self.clock.advance(self.spec.free_overhead_s)
        self.stats.frees += 1


class CachingAllocator(_AllocatorBase):
    """Pooling allocator reproducing the paper's memory-caching technique.

    Freed blocks are kept, grouped by size class; an allocation first tries
    its class's free list (a *pool hit*, effectively free) and only falls
    back to the driver on a miss.  ``release_all`` returns every pooled block
    to the device, e.g. between experiments.
    """

    def __init__(self, spec: DeviceSpec, memory: GlobalMemory, clock: SimClock):
        super().__init__(spec, memory, clock)
        self._pools: dict[int, list[DeviceBuffer]] = {}

    def alloc(
        self, nbytes: int, *, shape: tuple[int, ...] | None = None, dtype=np.float32
    ) -> DeviceBuffer:
        if self.fault_injector is not None:
            self.fault_injector.on_alloc(nbytes, self.memory)
        reserved = size_class(nbytes)
        dtype = np.dtype(dtype)
        if shape is None:
            shape = (nbytes // dtype.itemsize,)
        self.stats.allocs += 1
        self.stats.bytes_requested += nbytes

        pool = self._pools.get(reserved)
        if pool:
            buf = pool.pop()
            buf.reshape_view(tuple(shape), dtype)
            self.stats.pool_hits += 1
            self.clock.advance(_POOL_HIT_OVERHEAD_S)
            return self._register(buf)

        self.memory.reserve(reserved)
        self.clock.advance(self.spec.malloc_overhead_s)
        self.stats.pool_misses += 1
        self.stats.bytes_reserved += reserved
        return self._register(DeviceBuffer(reserved, tuple(shape), dtype))

    def free(self, buf: DeviceBuffer) -> None:
        self._unregister(buf)
        buf.retire()
        self._pools.setdefault(buf.nbytes, []).append(buf)
        self.clock.advance(_POOL_RELEASE_OVERHEAD_S)
        self.stats.frees += 1

    @property
    def pooled_bytes(self) -> int:
        """Bytes held in free lists (reserved on device but reusable)."""
        return sum(b.nbytes for pool in self._pools.values() for b in pool)

    @property
    def headroom_bytes(self) -> int:
        """Free device bytes plus pooled blocks (reusable on demand)."""
        return self.memory.free_bytes + self.pooled_bytes

    def release_all(self) -> None:
        """Return all pooled blocks to the device (cudaFree each)."""
        for pool in self._pools.values():
            for buf in pool:
                self.memory.release(buf.nbytes)
                self.clock.advance(self.spec.free_overhead_s)
        self._pools.clear()
