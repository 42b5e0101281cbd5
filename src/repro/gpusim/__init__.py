"""Simulated GPU substrate for the FastPSO reproduction.

This package stands in for the CUDA runtime and a Tesla V100: device specs,
global/shared memory, a caching allocator, kernel launches with occupancy
and roofline timing, counter-based parallel RNG, parallel reductions, tensor
cores, streams and multi-GPU coordination.  A kernel is a cost profile: the
numerics it stands for execute for real (NumPy, in the engines' one
iteration body, :mod:`repro.gpusim.graph`); kernel *timing* comes from the
analytic models in :mod:`repro.gpusim.costmodel`, so optimization results
are genuine while elapsed times reproduce the paper's hardware behaviour.
"""

from repro.gpusim.alloc import (
    AllocatorStats,
    CachingAllocator,
    DirectAllocator,
    size_class,
)
from repro.gpusim.clock import SimClock
from repro.gpusim.context import GpuContext, make_context
from repro.gpusim.costmodel import (
    DEFAULT_GPU_COST_PARAMS,
    CpuSpec,
    GpuCostParams,
    KernelCost,
    cpu_loop_cost,
    kernel_cost,
    xeon_e5_2640v4,
)
from repro.gpusim.device import (
    Device,
    DeviceSpec,
    get_preset,
    laptop_gpu,
    tesla_a100,
    tesla_v100,
)
from repro.gpusim.hostcache import (
    cache_enabled,
    clear_all_caches,
    set_enabled,
)
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.launch import (
    Launcher,
    LaunchRecord,
    LaunchStats,
    resource_aware_config,
    thread_per_item_config,
)
from repro.gpusim.memory import DeviceBuffer, GlobalMemory, TransferEngine
from repro.gpusim.occupancy import OccupancyResult, achieved_occupancy, occupancy
from repro.gpusim.profiler import (
    KernelSummary,
    ProfileReport,
    build_report,
    build_report_from_stats,
)
from repro.gpusim.reduction import ParallelReducer
from repro.gpusim.rng import ParallelRNG, philox4x32
from repro.gpusim.sharedmem import DEFAULT_TILE_SIZE, shared_mem_spec
from repro.gpusim.streams import Event, Stream
from repro.gpusim.tensorcore import (
    FRAGMENT_DIM,
    fragment_multiply_add,
    supports_tensor_cores,
    tensor_core_spec,
    to_half,
)

__all__ = [
    "AllocatorStats",
    "CachingAllocator",
    "DirectAllocator",
    "size_class",
    "SimClock",
    "GpuContext",
    "make_context",
    "DEFAULT_GPU_COST_PARAMS",
    "CpuSpec",
    "GpuCostParams",
    "KernelCost",
    "cpu_loop_cost",
    "kernel_cost",
    "xeon_e5_2640v4",
    "Device",
    "DeviceSpec",
    "get_preset",
    "laptop_gpu",
    "tesla_a100",
    "tesla_v100",
    "KernelSpec",
    "LaunchConfig",
    "Launcher",
    "LaunchRecord",
    "LaunchStats",
    "resource_aware_config",
    "thread_per_item_config",
    "cache_enabled",
    "clear_all_caches",
    "set_enabled",
    "DeviceBuffer",
    "GlobalMemory",
    "TransferEngine",
    "OccupancyResult",
    "achieved_occupancy",
    "occupancy",
    "KernelSummary",
    "ProfileReport",
    "build_report",
    "build_report_from_stats",
    "ParallelReducer",
    "ParallelRNG",
    "philox4x32",
    "DEFAULT_TILE_SIZE",
    "shared_mem_spec",
    "Event",
    "Stream",
    "FRAGMENT_DIM",
    "fragment_multiply_add",
    "supports_tensor_cores",
    "tensor_core_spec",
    "to_half",
]
