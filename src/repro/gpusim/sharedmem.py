"""Shared-memory tiling for element-wise matrix kernels.

Section 3.5 of the paper stages the swarm-update matrices through shared
memory in ``(TILE_SIZE, TILE_SIZE)`` sub-matrices.  For a purely element-wise
kernel this does not reduce DRAM traffic (each element is touched once), but
it does change the kernel's resource profile: the tile buffers consume
shared memory (which can lower occupancy) while guaranteeing coalesced,
bank-conflict-free access during the compute phase.  The paper's Figure 6
finds the global-memory and shared-memory variants nearly tied — exactly the
behaviour this model produces for a bandwidth-bound update.

Tiling changes how a kernel uses the GPU, not what it computes, so this
module is cost model only: :func:`shared_mem_spec` derives the modified
:class:`KernelSpec`, and the shared-memory backend runs the same
element-wise semantics as the global-memory one.
"""

from __future__ import annotations

from repro.errors import InvalidLaunchError
from repro.gpusim.kernel import KernelSpec

__all__ = ["DEFAULT_TILE_SIZE", "shared_mem_spec"]

DEFAULT_TILE_SIZE = 32


def shared_mem_spec(
    base: KernelSpec,
    n_input_matrices: int,
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
    dtype_bytes: int = 4,
    block_threads: int = 256,
) -> KernelSpec:
    """Derive the shared-memory variant of an element-wise kernel spec.

    Each resident block stages ``n_input_matrices`` input tiles plus one
    output tile.  Staging guarantees coalesced DRAM access (tiles are loaded
    row-contiguously) and adds a small per-element instruction cost for the
    extra shared-memory load/store pair and the two ``__syncthreads``.
    """
    if n_input_matrices < 1:
        raise InvalidLaunchError("tiled kernel needs at least one input matrix")
    if block_threads <= 0:
        raise InvalidLaunchError("block_threads must be positive")
    tile_bytes = tile_size * tile_size * dtype_bytes
    smem = (n_input_matrices + 1) * tile_bytes
    return base.scaled(
        name=f"{base.name}_smem",
        shared_mem_per_block=smem,
        coalesced=True,
        flops_per_elem=base.flops_per_elem + 2.0,  # smem ld/st pair
        registers_per_thread=base.registers_per_thread + 4,
    )
