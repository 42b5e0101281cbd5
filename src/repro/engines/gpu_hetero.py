"""``hgpu-pso``: heterogeneous CPU+GPU baseline (Wachowiak et al. 2017).

Adaptive PSO with the swarm logic split across host and device: the GPU runs
the particle-update kernels (same thread-per-particle mapping and stateful
RNG as ``gpu-pso``), while fitness evaluation and best-keeping run on the
multicore host.  The price is a PCIe round trip every iteration — positions
down to the host, fitness values back up — plus the host-side evaluation
time, which is why the paper measures it slightly *slower* than the pure-GPU
baseline on these cheap objectives (Table 1: 6.0 s vs 4.9 s on Sphere)
despite using 20 extra cores.
"""

from __future__ import annotations

from repro.core.problem import Problem
from repro.engines.gpu_particle import GpuParticleEngine
from repro._compat import deprecated_kwargs
from repro.errors import InvalidParameterError
from repro.gpusim.costmodel import (
    CpuSpec,
    GpuCostParams,
    cpu_loop_cost,
    xeon_e5_2640v4,
)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import LiveCharge

__all__ = ["GpuHeteroEngine"]

_F64 = 8
_TRANSFER_SUBMIT_OVERHEAD_S = 6.0e-6


class GpuHeteroEngine(GpuParticleEngine):
    """Heterogeneous multicore-CPU + GPU PSO (``hgpu-pso``)."""

    name = "hgpu-pso"
    is_gpu = True

    @deprecated_kwargs(spec="device")
    def __init__(
        self,
        device: DeviceSpec | None = None,
        *,
        cpu: CpuSpec | None = None,
        cpu_threads: int = 20,
        threads_per_block: int = 128,
        cost_params: GpuCostParams | None = None,
        record_launches: bool = False,
    ) -> None:
        super().__init__(
            device,
            threads_per_block=threads_per_block,
            cost_params=cost_params,
            record_launches=record_launches,
        )
        if cpu_threads < 1:
            raise InvalidParameterError(f"cpu_threads must be >= 1, got {cpu_threads}")
        self.cpu = cpu or xeon_e5_2640v4()
        self.cpu_threads = cpu_threads

    def _transfer_seconds(self, nbytes: int) -> float:
        return _TRANSFER_SUBMIT_OVERHEAD_S + nbytes / self.ctx.spec.pcie_bandwidth

    def _build_live(self, problem: Problem, n: int) -> None:
        super()._build_live(problem, n)
        d = problem.dim
        prof = problem.evaluator.profile()
        cost = cpu_loop_cost(
            self.cpu,
            n * d,
            flops_per_elem=prof.flops_per_elem + prof.reduction_flops_per_elem,
            bytes_per_elem=_F64,
            transcendental_per_elem=prof.sfu_per_elem,
            threads=self.cpu_threads,
        )
        # Host-side evaluation: positions down over PCIe (D2H), the
        # multicore loop, fitness values back up (H2D) for the best-update
        # kernels.
        self._live["evaluate"] = LiveCharge(
            self.clock,
            before=(self._transfer_seconds(n * d * _F64),),
            after=(cost.seconds, self._transfer_seconds(n * _F64)),
        )
