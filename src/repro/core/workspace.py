"""Reusable host-side scratch arena for per-iteration temporaries.

Every PSO iteration needs the same handful of ``(n, d)`` temporaries — the
two random weight matrices, the broadcast social matrix, velocity-update
pull terms, tile buffers.  Allocating them fresh each iteration is pure
host-side churn, the same per-request allocation pathology the paper's
technique (iii) removes on the GPU with a caching allocator.  A
:class:`Workspace` keys buffers by name and hands the same array back every
iteration, reallocating only when the requested shape or dtype changes.
A finished run releases its engine's buffers, so an engine that is no
longer stepped holds no host scratch.

This arena manages *host* NumPy scratch only.  Simulated device-side
allocation (``alloc_like``/``free`` and their modelled cudaMalloc costs) is
the allocator's job and is deliberately untouched — Table 4 measures it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named, reusable NumPy scratch buffers.

    Buffers are returned *uninitialised* (like ``np.empty``) and their
    contents do not survive between :meth:`array` calls of the same name —
    callers must fully overwrite what they read.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(
        self, name: str, shape: tuple[int, ...], dtype=np.float32
    ) -> np.ndarray:
        """The buffer registered under *name*, (re)allocated to fit."""
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype)
            self._buffers[name] = buf
        return buf

    def release(self) -> None:
        """Drop every buffer (frees the host memory on next GC)."""
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)
