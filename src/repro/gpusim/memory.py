"""Simulated device global memory and host<->device transfers.

Device buffers are backed by host NumPy arrays (the *semantics*), while the
capacity accounting and transfer timing reproduce the *behaviour* of a real
16 GB card: allocations fail with :class:`DeviceOutOfMemoryError` once the
modelled capacity is exhausted, and every H2D/D2H copy advances the device
clock by ``bytes / pcie_bandwidth`` plus a fixed submission latency.

Buffer lifetime is checked: touching a freed buffer raises
:class:`MemoryAccessError`, which catches the class of use-after-free bug
that the paper's caching allocator could otherwise mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceOutOfMemoryError, MemoryAccessError
from repro.gpusim.clock import SimClock
from repro.gpusim.device import DeviceSpec

__all__ = ["GlobalMemory", "DeviceBuffer", "TransferEngine"]

_buffer_ids = itertools.count(1)

# Fixed cost to enqueue a cudaMemcpy, independent of size.
_TRANSFER_SUBMIT_OVERHEAD_S = 6.0e-6


@dataclass
class GlobalMemory:
    """Capacity accounting for a device's global (DRAM) memory."""

    total_bytes: int
    used_bytes: int = 0
    high_water_bytes: int = 0

    @property
    def free_bytes(self) -> int:
        return self.total_bytes - self.used_bytes

    @property
    def pressure(self) -> float:
        """Occupied fraction of capacity (0.0 empty .. 1.0 full).

        The admission-control layer samples this before placing work, so a
        fleet near capacity can shed or degrade low-priority jobs instead
        of dying on a mid-run :class:`DeviceOutOfMemoryError`.
        """
        if self.total_bytes <= 0:
            return 1.0
        return self.used_bytes / self.total_bytes

    def reserve(self, nbytes: int) -> None:
        """Claim *nbytes*; raises :class:`DeviceOutOfMemoryError` if over capacity."""
        if nbytes < 0:
            raise ValueError("cannot reserve a negative byte count")
        if nbytes > self.free_bytes:
            raise DeviceOutOfMemoryError(nbytes, self.free_bytes, self.total_bytes)
        self.used_bytes += nbytes
        self.high_water_bytes = max(self.high_water_bytes, self.used_bytes)

    def release(self, nbytes: int) -> None:
        """Return *nbytes* to the free pool."""
        if nbytes < 0:
            raise ValueError("cannot release a negative byte count")
        if nbytes > self.used_bytes:
            raise MemoryAccessError(
                f"releasing {nbytes} bytes but only {self.used_bytes} in use"
            )
        self.used_bytes -= nbytes


class DeviceBuffer:
    """A typed, shaped region of simulated device memory.

    The backing store is a NumPy array, zero-filled on first access: most
    buffers only back the cost model and are never read on the host, so
    they cost no host memory.  ``nbytes`` is the *reserved* size,
    which may exceed ``shape``'s logical size when the buffer came from a
    pooling allocator's size class.
    """

    __slots__ = ("buffer_id", "nbytes", "dtype", "shape", "_data", "_alive")

    def __init__(self, nbytes: int, shape: tuple[int, ...], dtype: np.dtype) -> None:
        self.buffer_id = next(_buffer_ids)
        self.nbytes = int(nbytes)
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        logical = math.prod(self.shape) * self.dtype.itemsize
        if logical > self.nbytes:
            raise ValueError(
                f"shape {self.shape} of {self.dtype} needs {logical} bytes "
                f"but buffer holds only {self.nbytes}"
            )
        self._data = None
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def array(self) -> np.ndarray:
        """The device-resident contents; raises if the buffer was freed."""
        if not self._alive:
            raise MemoryAccessError(
                f"buffer #{self.buffer_id} used after free"
            )
        if self._data is None:
            self._data = np.zeros(self.shape, dtype=self.dtype)
        return self._data

    def retire(self) -> None:
        """Mark the buffer dead (called by allocators on free)."""
        self._alive = False

    def reshape_view(self, shape: tuple[int, ...], dtype: np.dtype) -> None:
        """Re-type a pooled buffer for reuse without reallocating.

        Used by the caching allocator when a pool block is handed out for a
        request with a different shape than its previous tenant.
        """
        dtype = np.dtype(dtype)
        logical = int(math.prod(shape)) * dtype.itemsize
        if logical > self.nbytes:
            raise ValueError(
                f"reuse shape {shape} of {dtype} needs {logical} bytes "
                f"but pooled block holds {self.nbytes}"
            )
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self._data = None
        self._alive = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "freed"
        return (
            f"DeviceBuffer(#{self.buffer_id}, shape={self.shape}, "
            f"dtype={self.dtype}, nbytes={self.nbytes}, {state})"
        )


@dataclass
class TransferEngine:
    """Models PCIe host<->device copies, charging time to the device clock."""

    spec: DeviceSpec
    clock: SimClock
    bytes_h2d: int = 0
    bytes_d2h: int = 0

    def _transfer_time(self, nbytes: int) -> float:
        return _TRANSFER_SUBMIT_OVERHEAD_S + nbytes / self.spec.pcie_bandwidth

    def htod(self, buffer: DeviceBuffer, host_array: np.ndarray) -> None:
        """Copy *host_array* into *buffer*, advancing the clock."""
        dest = buffer.array()
        src = np.asarray(host_array, dtype=buffer.dtype)
        if src.shape != dest.shape:
            raise MemoryAccessError(
                f"H2D shape mismatch: host {src.shape} vs device {dest.shape}"
            )
        dest[...] = src
        self.bytes_h2d += src.nbytes
        self.clock.advance(self._transfer_time(src.nbytes))

    def dtoh(self, buffer: DeviceBuffer) -> np.ndarray:
        """Copy *buffer* back to the host, advancing the clock."""
        src = buffer.array()
        self.bytes_d2h += src.nbytes
        self.clock.advance(self._transfer_time(src.nbytes))
        return src.copy()
