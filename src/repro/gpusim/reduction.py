"""Parallel reduction (min / argmin) cost profile for the gbest update.

The paper implements the gbest update as "a process of finding the minimum
and its corresponding index in all the pbest of the particles ... using a
GPU-based parallel reduction".  We model the canonical two-pass tree
reduction: a first kernel reduces each block's slice in shared memory and
writes one candidate per block; a second single-block kernel reduces the
candidates.  This module holds the *timing* only — two launches with the
appropriate byte/FLOP mixes.  The claim itself is
:func:`repro.core.swarm.gbest_scan` on every engine and tier: NumPy
``argmin`` with first-match tie breaking, the same deterministic order the
tree reduction produces.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.launch import Launcher

__all__ = ["ParallelReducer", "REDUCE_BLOCK_SIZE"]

REDUCE_BLOCK_SIZE = 256


_SMEM = REDUCE_BLOCK_SIZE * 8  # value + index per thread

#: Pass 1: each block reduces its slice and writes one candidate pair.
PASS1 = KernelSpec(
    name="reduce_argmin_pass1",
    flops_per_elem=1.0,  # one compare per element
    bytes_read_per_elem=4.0,
    bytes_written_per_elem=8.0 / REDUCE_BLOCK_SIZE,  # one pair/block
    registers_per_thread=24,
    shared_mem_per_block=_SMEM,
)
#: Pass 2: one block reduces the candidates.
PASS2 = KernelSpec(
    name="reduce_argmin_pass2",
    flops_per_elem=1.0,
    bytes_read_per_elem=8.0,
    bytes_written_per_elem=8.0 / REDUCE_BLOCK_SIZE,
    registers_per_thread=24,
    shared_mem_per_block=_SMEM,
)
_SINGLE_BLOCK = LaunchConfig(1, REDUCE_BLOCK_SIZE)


class ParallelReducer:
    """Two-pass block-tree min/argmin reduction on a simulated device."""

    pass1 = PASS1
    pass2 = PASS2

    def __init__(self, launcher: Launcher) -> None:
        self._launcher = launcher

    def passes(self, n: int) -> tuple:
        """The reduction of *n* values as ``(spec, n_elems, config)``
        launches: pass 1 over the values with the resource-aware geometry,
        then pass 2 over one candidate per block in a single block — or
        pass 2 alone when ``n == 1``, since a degenerate reduction still
        costs one (tiny) kernel."""
        if n == 1:
            return ((PASS2, 1, _SINGLE_BLOCK),)
        n_blocks = -(-n // REDUCE_BLOCK_SIZE)
        return ((PASS1, n, None), (PASS2, n_blocks, _SINGLE_BLOCK))

    def argmin(self, values: np.ndarray) -> None:
        """Launch the reduction of a 1-D device-resident array.

        Charges the launches of :meth:`passes`; the caller claims the
        minimum with :func:`~repro.core.swarm.gbest_scan`.
        """
        values = np.asarray(values)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError(
                f"argmin reduction needs a non-empty 1-D array, got shape {values.shape}"
            )
        for spec, n_elems, config in self.passes(values.shape[0]):
            self._launcher.launch(spec, n_elems, config=config)
