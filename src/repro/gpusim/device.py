"""Simulated GPU device model.

A :class:`DeviceSpec` captures the architectural parameters that FastPSO's
performance depends on — SM count, warp width, memory bandwidth, shared
memory size, tensor cores — and a :class:`Device` is a runtime instance that
owns global memory, an allocator, a simulated clock and a profiler.

The specs for the presets come from NVIDIA's published datasheets; the paper
evaluates on a 16 GB Tesla V100, which is the default preset
(:func:`tesla_v100`).  Each preset is one frozen instance per process.
*Effective* (as opposed to peak) throughput factors
live in :mod:`repro.gpusim.costmodel`, not here: the spec describes the
hardware, the cost model describes how well a kernel exploits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError, InvalidLaunchError
from repro.utils.units import GIB

__all__ = [
    "DeviceSpec",
    "Device",
    "tesla_v100",
    "tesla_a100",
    "laptop_gpu",
    "get_preset",
    "PRESETS",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural description of a simulated CUDA device.

    All byte quantities are in bytes, frequencies in GHz, bandwidths in
    bytes/second.  ``max_resident_threads`` and friends are *per device*
    derived properties.
    """

    name: str
    sm_count: int
    cores_per_sm: int
    clock_ghz: float
    dram_bandwidth: float  # bytes/s, peak
    global_mem_bytes: int
    shared_mem_per_sm: int
    shared_mem_per_block_max: int
    registers_per_sm: int
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    warp_size: int = 32
    tensor_cores_per_sm: int = 8
    # One tensor core retires one 4x4x4 FMA matrix op per cycle on Volta;
    # we express it as fp16 FLOP/s per tensor core at the spec clock.
    tensor_core_flops_per_cycle: int = 128
    pcie_bandwidth: float = 12.0e9  # bytes/s, effective PCIe 3.0 x16
    kernel_launch_overhead_s: float = 4.0e-6
    malloc_overhead_s: float = 4.5e-6
    free_overhead_s: float = 2.5e-6
    dram_latency_s: float = 450e-9
    # -- memory hierarchy (cost model v2) -----------------------------------
    # All default to 0, which disables the L1/L2 hit-rate model and makes
    # kernel_cost reproduce the flat v1 roofline bit for bit — the in-code
    # presets stay flat so existing goldens hold; hierarchy-enabled specs
    # live in the repro.devices catalog machine files.
    l1_cache_per_sm: int = 0  # bytes of L1/tex cache per SM
    l2_cache_bytes: int = 0  # device-wide L2 capacity in bytes
    l2_bandwidth: float = 0.0  # bytes/s, peak L2 read bandwidth
    # Hardware allocation granularities consumed by the occupancy model.
    register_alloc_unit: int = 256
    smem_alloc_unit: int = 256

    def __post_init__(self) -> None:
        # ConfigurationError (which is a ReproError, not a ValueError) per
        # the construction-time validation contract shared with Budget /
        # Problem: a bad spec fails with one friendly message up front.
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise ConfigurationError(
                "device must have positive SM and core counts, got "
                f"sm_count={self.sm_count}, cores_per_sm={self.cores_per_sm}"
            )
        if self.warp_size <= 0:
            raise ConfigurationError(
                f"warp_size must be positive, got {self.warp_size}"
            )
        if self.max_threads_per_block % self.warp_size:
            raise ConfigurationError(
                "max_threads_per_block must be a positive multiple of "
                f"warp_size, got {self.max_threads_per_block} with "
                f"warp_size={self.warp_size}"
            )
        if self.dram_bandwidth <= 0 or self.clock_ghz <= 0:
            raise ConfigurationError(
                "bandwidth and clock must be positive, got "
                f"dram_bandwidth={self.dram_bandwidth}, clock_ghz={self.clock_ghz}"
            )
        if self.global_mem_bytes <= 0:
            raise ConfigurationError(
                f"global_mem_bytes must be positive, got {self.global_mem_bytes}"
            )
        if min(self.l1_cache_per_sm, self.l2_cache_bytes) < 0 or self.l2_bandwidth < 0:
            raise ConfigurationError("cache capacities and bandwidth must be >= 0")
        if self.register_alloc_unit <= 0 or self.smem_alloc_unit <= 0:
            raise ConfigurationError("allocation granularities must be positive")

    def __hash__(self) -> int:
        # Device specs key the memoized occupancy/cost caches; hash the
        # field tuple once per instance instead of on every lookup.
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
            return h

    # -- derived capacities -------------------------------------------------
    @property
    def total_cores(self) -> int:
        """FP32 lanes across the whole device."""
        return self.sm_count * self.cores_per_sm

    @property
    def max_resident_threads(self) -> int:
        """Hardware limit on simultaneously resident threads."""
        return self.sm_count * self.max_threads_per_sm

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size

    @property
    def fp32_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s (FMA counted as 2)."""
        return self.total_cores * self.clock_ghz * 1e9 * 2.0

    @property
    def has_memory_hierarchy(self) -> bool:
        """Whether this spec enables the L1/L2 hit-rate model (v2)."""
        return self.l2_cache_bytes > 0 and self.l2_bandwidth > 0

    @property
    def tensor_flops(self) -> float:
        """Peak mixed-precision tensor-core throughput in FLOP/s."""
        return (
            self.sm_count
            * self.tensor_cores_per_sm
            * self.tensor_core_flops_per_cycle
            * self.clock_ghz
            * 1e9
        )

    def validate_block(self, threads_per_block: int, shared_mem: int = 0) -> None:
        """Raise :class:`InvalidLaunchError` if a block shape is illegal."""
        if threads_per_block <= 0:
            raise InvalidLaunchError(
                f"block must have at least one thread, got {threads_per_block}"
            )
        if threads_per_block > self.max_threads_per_block:
            raise InvalidLaunchError(
                f"{threads_per_block} threads/block exceeds device limit "
                f"{self.max_threads_per_block}"
            )
        if shared_mem < 0 or shared_mem > self.shared_mem_per_block_max:
            raise InvalidLaunchError(
                f"{shared_mem} bytes of shared memory per block exceeds limit "
                f"{self.shared_mem_per_block_max}"
            )

    def with_overrides(self, **kwargs: object) -> "DeviceSpec":
        """Return a copy of this spec with selected fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


_TESLA_V100 = DeviceSpec(
    name="Tesla V100-16GB",
    sm_count=80,
    cores_per_sm=64,
    clock_ghz=1.53,
    dram_bandwidth=900.0e9,
    global_mem_bytes=16 * GIB,
    shared_mem_per_sm=96 * 1024,
    shared_mem_per_block_max=96 * 1024,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    tensor_cores_per_sm=8,
)


def tesla_v100() -> DeviceSpec:
    """The paper's testbed: Tesla V100 SXM2 16 GB (Volta, GV100).

    One frozen instance per process, so every engine built on it
    shares it; use :meth:`DeviceSpec.with_overrides` for a variant.
    """
    return _TESLA_V100


_TESLA_A100 = DeviceSpec(
    name="Tesla A100-40GB",
    sm_count=108,
    cores_per_sm=64,
    clock_ghz=1.41,
    dram_bandwidth=1555.0e9,
    global_mem_bytes=40 * GIB,
    shared_mem_per_sm=164 * 1024,
    shared_mem_per_block_max=163 * 1024,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    tensor_cores_per_sm=4,
    tensor_core_flops_per_cycle=512,
)


def tesla_a100() -> DeviceSpec:
    """A100 SXM4 40 GB (Ampere), for scaling studies beyond the paper."""
    return _TESLA_A100


_LAPTOP_GPU = DeviceSpec(
    name="Laptop-GTX1650",
    sm_count=14,
    cores_per_sm=64,
    clock_ghz=1.49,
    dram_bandwidth=128.0e9,
    global_mem_bytes=4 * GIB,
    shared_mem_per_sm=64 * 1024,
    shared_mem_per_block_max=48 * 1024,
    registers_per_sm=65536,
    max_threads_per_sm=1024,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    tensor_cores_per_sm=0,
)


def laptop_gpu() -> DeviceSpec:
    """A small mobile part (GTX 1650-class) to exercise low-resource paths."""
    return _LAPTOP_GPU


PRESETS = {
    "v100": tesla_v100,
    "a100": tesla_a100,
    "laptop": laptop_gpu,
}


def get_preset(name: str) -> DeviceSpec:
    """Look up a device spec by short name.

    Thin shim over :func:`repro.devices.resolve_device`: the in-code presets
    (``v100``, ``a100``, ``laptop``) resolve to their flat specs exactly as
    before, and every entry of the :mod:`repro.devices` machine-file catalog
    (``h100``, ``cpu-xeon``, hierarchy-enabled variants, …) is reachable too.
    Unknown names raise :class:`repro.errors.UnknownDeviceError` — a
    ``ValueError`` subclass, so historical ``except ValueError`` call sites
    keep working — with a did-you-mean suggestion.
    """
    from repro.devices import resolve_device  # local: devices imports us

    return resolve_device(name)


@dataclass
class Device:
    """A runtime device: spec + global memory + clock + profiler.

    Constructed via :func:`repro.gpusim.make_device` in normal use.  The
    pieces are attached lazily by that factory to avoid circular imports
    between the memory/profiler modules and this one.
    """

    spec: DeviceSpec
    memory: object = field(default=None, repr=False)
    allocator: object = field(default=None, repr=False)
    profiler: object = field(default=None, repr=False)
    clock: object = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.spec.name
