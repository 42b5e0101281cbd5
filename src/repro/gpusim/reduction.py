"""Parallel reduction primitives (min / argmin) for the gbest update.

The paper implements the gbest update as "a process of finding the minimum
and its corresponding index in all the pbest of the particles ... using a
GPU-based parallel reduction".  We model the canonical two-pass tree
reduction: a first kernel reduces each block's slice in shared memory and
writes one candidate per block; a second single-block kernel reduces the
candidates.  The semantics are exact (NumPy ``argmin`` with first-match tie
breaking, the same deterministic order a sequential scan produces), and the
timing is two launches with the appropriate byte/FLOP mixes.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.kernel import Kernel, KernelSpec, LaunchConfig
from repro.gpusim.launch import Launcher

__all__ = ["ParallelReducer", "REDUCE_BLOCK_SIZE"]

REDUCE_BLOCK_SIZE = 256


def _argmin_first(values: np.ndarray) -> tuple[int, float]:
    idx = int(np.argmin(values))
    return idx, float(values[idx])


class ParallelReducer:
    """Two-pass block-tree min/argmin reduction on a simulated device."""

    def __init__(self, launcher: Launcher) -> None:
        self._launcher = launcher
        smem = REDUCE_BLOCK_SIZE * 8  # value + index per thread
        self._pass1 = Kernel(
            KernelSpec(
                name="reduce_argmin_pass1",
                flops_per_elem=1.0,  # one compare per element
                bytes_read_per_elem=4.0,
                bytes_written_per_elem=8.0 / REDUCE_BLOCK_SIZE,  # one pair/block
                registers_per_thread=24,
                shared_mem_per_block=smem,
            ),
            semantics=self._pass1_semantics,
        )
        self._pass2 = Kernel(
            KernelSpec(
                name="reduce_argmin_pass2",
                flops_per_elem=1.0,
                bytes_read_per_elem=8.0,
                bytes_written_per_elem=8.0 / REDUCE_BLOCK_SIZE,
                registers_per_thread=24,
                shared_mem_per_block=smem,
            ),
            semantics=_argmin_first,
        )

    @staticmethod
    def _pass1_semantics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-block partial argmin: one (value, index) candidate per block."""
        n = values.shape[0]
        n_blocks = -(-n // REDUCE_BLOCK_SIZE)
        pad = n_blocks * REDUCE_BLOCK_SIZE - n
        padded = np.concatenate([values, np.full(pad, np.inf, values.dtype)])
        tiles = padded.reshape(n_blocks, REDUCE_BLOCK_SIZE)
        local_idx = np.argmin(tiles, axis=1)
        block_vals = tiles[np.arange(n_blocks), local_idx]
        block_idx = local_idx + np.arange(n_blocks) * REDUCE_BLOCK_SIZE
        return block_vals, block_idx

    def argmin(self, values: np.ndarray) -> tuple[int, float]:
        """Index and value of the minimum of a 1-D device-resident array.

        Ties resolve to the lowest index, matching both ``np.argmin`` and a
        deterministic sequential scan — required so the simulated engines
        stay bit-identical to the CPU reference trajectories.
        """
        values = np.ascontiguousarray(values)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError(
                f"argmin reduction needs a non-empty 1-D array, got shape {values.shape}"
            )
        n = values.shape[0]
        if n == 1:
            # Degenerate reduction still costs one (tiny) kernel.
            self._launcher.launch(
                self._pass2,
                1,
                values,
                config=LaunchConfig(1, REDUCE_BLOCK_SIZE),
            )
            return 0, float(values[0])

        block_vals, block_idx = self._launcher.launch(self._pass1, n, values)
        local, _ = self._launcher.launch(
            self._pass2,
            block_vals.shape[0],
            block_vals,
            config=LaunchConfig(1, REDUCE_BLOCK_SIZE),
        )
        return int(block_idx[local]), float(block_vals[local])
