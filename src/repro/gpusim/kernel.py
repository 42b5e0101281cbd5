"""Kernel abstraction: a cost profile, an instruction/byte mix plus geometry.

A simulated kernel is a :class:`KernelSpec` describing its per-element
resource demands — FLOPs, bytes read/written, special-function
(transcendental) ops, dependent global loads, register and shared-memory
footprint, and whether its global-memory accesses coalesce — launched with a
:class:`LaunchConfig`.  The cost model consumes only these.  The array
computation a kernel stands for is not part of it: engines run the shared
:mod:`repro.core.swarm` numerics themselves, between the launcher's fault
hook and its charge (:mod:`repro.gpusim.launch`), so optimization results
are genuinely computed rather than modelled.

This mirrors how the paper reasons about its kernels: the element-wise
swarm-update kernel is characterised by its arithmetic intensity and access
pattern, independent of the PSO mathematics it encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import InvalidLaunchError
from repro.gpusim.device import DeviceSpec

__all__ = ["KernelSpec", "LaunchConfig"]


@dataclass(frozen=True)
class KernelSpec:
    """Per-element resource demands of a kernel.

    Attributes
    ----------
    name:
        Profiler label.
    flops_per_elem:
        FP32 arithmetic operations per element (FMA counts as 2).
    bytes_read_per_elem / bytes_written_per_elem:
        Global-memory traffic per element.  RNG *state* traffic must be
        included here when a kernel keeps per-thread generator state (the
        mechanism that makes curand-state baselines memory-heavy).
    sfu_per_elem:
        Special-function-unit operations (sin/cos/exp/sqrt) per element.
    dependent_loads_per_elem:
        Global loads on the critical path of a serial per-thread loop; this
        drives the latency-bound term for low-occupancy launches.
    registers_per_thread / shared_mem_per_block:
        Static resource footprint, consumed by the occupancy calculation.
    coalesced:
        Whether consecutive threads touch consecutive addresses.
    tensor_core:
        Whether the kernel issues its arithmetic on tensor cores (mixed
        precision); affects both timing and numerics.
    reread_fraction / working_set_bytes_per_elem:
        Access-pattern hints for the memory-hierarchy cost model v2
        (:mod:`repro.gpusim.costmodel`).  ``reread_fraction`` is the share
        of ``bytes_read_per_elem`` that *re-references* data touched
        recently — by an earlier launch of the iteration loop (swarm state
        re-read every iteration) or by other threads of the same launch (a
        broadcast gbest row).  ``working_set_bytes_per_elem`` is the
        per-element footprint of that re-referenced data; whether it fits
        in L1/L2 decides the hit rate.  ``0.0`` (the default) marks a
        purely streaming kernel, for which the hierarchy model degenerates
        to the flat v1 roofline bit for bit.
    """

    name: str
    flops_per_elem: float = 1.0
    bytes_read_per_elem: float = 4.0
    bytes_written_per_elem: float = 4.0
    sfu_per_elem: float = 0.0
    dependent_loads_per_elem: float = 0.0
    registers_per_thread: int = 32
    shared_mem_per_block: int = 0
    coalesced: bool = True
    tensor_core: bool = False
    reread_fraction: float = 0.0
    working_set_bytes_per_elem: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("kernel must be named")
        for field_name in (
            "flops_per_elem",
            "bytes_read_per_elem",
            "bytes_written_per_elem",
            "sfu_per_elem",
            "dependent_loads_per_elem",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.registers_per_thread <= 0:
            raise ValueError("registers_per_thread must be positive")
        if self.shared_mem_per_block < 0:
            raise ValueError("shared_mem_per_block must be non-negative")
        if not 0.0 <= self.reread_fraction <= 1.0:
            raise ValueError("reread_fraction must lie in [0, 1]")
        if self.working_set_bytes_per_elem < 0:
            raise ValueError("working_set_bytes_per_elem must be non-negative")

    def __hash__(self) -> int:
        # Same field-tuple hash a frozen dataclass generates, but computed
        # once: specs are dict keys on the memoized launch/cost hot path.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash(
                (
                    self.name,
                    self.flops_per_elem,
                    self.bytes_read_per_elem,
                    self.bytes_written_per_elem,
                    self.sfu_per_elem,
                    self.dependent_loads_per_elem,
                    self.registers_per_thread,
                    self.shared_mem_per_block,
                    self.coalesced,
                    self.tensor_core,
                    self.reread_fraction,
                    self.working_set_bytes_per_elem,
                )
            )
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def bytes_per_elem(self) -> float:
        return self.bytes_read_per_elem + self.bytes_written_per_elem

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of DRAM traffic (the roofline x-axis)."""
        b = self.bytes_per_elem
        return self.flops_per_elem / b if b > 0 else float("inf")

    def scaled(self, **overrides: object) -> "KernelSpec":
        """Copy with selected fields replaced (for backend variants)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry of one kernel launch."""

    grid_blocks: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise InvalidLaunchError(
                f"grid must contain at least one block, got {self.grid_blocks}"
            )
        if self.threads_per_block <= 0:
            raise InvalidLaunchError(
                f"block must contain at least one thread, got {self.threads_per_block}"
            )

    def __hash__(self) -> int:
        # Cached for the same reason as :meth:`KernelSpec.__hash__`.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash((self.grid_blocks, self.threads_per_block))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def total_threads(self) -> int:
        return self.grid_blocks * self.threads_per_block

    def validate(self, spec: DeviceSpec, shared_mem: int = 0) -> None:
        """Check this geometry against a device's hardware limits."""
        spec.validate_block(self.threads_per_block, shared_mem)

    def workload_per_thread(self, n_elems: int) -> int:
        """Grid-stride iterations each thread executes for *n_elems*."""
        if n_elems <= 0:
            return 0
        return -(-n_elems // self.total_threads)
