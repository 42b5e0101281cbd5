"""``gpu-pso``: the thread-per-particle GPU baseline (Hussain et al. 2016).

The state-of-the-art the paper compares against.  Algorithmically it is
standard PSO with velocity confinement — the *numerics here are identical*
to FastPSO's (same Philox stream, same update equations), so its Table 2
errors land next to fastpso's, as in the paper.  What differs is the GPU
mapping, and each difference is a mechanism the paper calls out:

* **one thread per particle** — a swarm of 5000 occupies ~3% of a V100's
  resident-thread capacity; every kernel runs at starvation occupancy.
* **serial per-thread loops** — each thread walks its particle's ``d``
  elements with dependent global loads (the latency-bound term).
* **double precision** — standard-PSO implementations keep positions and
  velocities in fp64, doubling streaming traffic.
* **stateful cuRAND (XORWOW) generators** — each of the 2 draws per element
  loads and stores a 48-byte generator state block from global memory
  (counter-based Philox needs none); this is the dominant traffic term and
  the reason the paper's technique (ii) exists.

With these mechanisms the model lands in the paper's measured bands: a few
seconds per 2000-iteration run (Table 1) and ~60 GB/s achieved DRAM read
throughput (Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.initializers import initialize_swarm
from repro.core.swarm import SwarmState
from repro._compat import deprecated_kwargs
from repro.gpusim import hostcache
from repro.gpusim.context import GpuContext, make_context
from repro.gpusim.costmodel import GpuCostParams
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import LiveLaunch
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.launch import thread_per_item_config
from repro.gpusim.rng import ParallelRNG

__all__ = ["GpuParticleEngine"]

_F64 = 8
#: cuRAND XORWOW state block (sizeof(curandState)) in bytes.
_CURAND_STATE_BYTES = 48
#: Random draws per matrix element per iteration (l_ij and g_ij).
_DRAWS_PER_ELEM = 2.0
#: Fraction of state traffic that reaches DRAM (small L2 hit rate; the
#: state blocks of a 5000-thread launch mostly miss the 6 MB L2).
_STATE_DRAM_FRACTION = 0.9


class GpuParticleEngine(Engine):
    """Thread-per-particle PSO on the simulated GPU (``gpu-pso``)."""

    name = "gpu-pso"
    is_gpu = True

    @deprecated_kwargs(spec="device")
    def __init__(
        self,
        device: DeviceSpec | None = None,
        *,
        threads_per_block: int = 128,
        cost_params: GpuCostParams | None = None,
        record_launches: bool = False,
    ) -> None:
        super().__init__()
        self.ctx: GpuContext = make_context(
            device,
            caching=False,
            cost_params=cost_params,
            record_launches=record_launches,
        )
        self.clock = self.ctx.clock
        self.threads_per_block = threads_per_block
        self._kernels: dict[str, KernelSpec] = {}
        self._buffers: list = []

    # -- kernels -------------------------------------------------------------
    def _build_kernels(self, problem: Problem, params: PSOParams) -> None:
        prof = problem.evaluator.profile()
        d = problem.dim
        state_traffic = (
            _DRAWS_PER_ELEM * _CURAND_STATE_BYTES * _STATE_DRAM_FRACTION
        )
        kernels = {
            # Fused per-particle update: inline XORWOW draws + Eq. (4)/(2),
            # numerics identical to fastpso's swarm update.
            "update": KernelSpec(
                name="particle_update",
                flops_per_elem=12.0 + 10.0 * _DRAWS_PER_ELEM,  # rng arith
                bytes_read_per_elem=3 * _F64 + state_traffic,
                bytes_written_per_elem=2 * _F64 + state_traffic,
                dependent_loads_per_elem=2.0,
                registers_per_thread=64,
            ),
            "evaluate": KernelSpec(
                name="particle_evaluate",
                flops_per_elem=(
                    prof.flops_per_elem + prof.reduction_flops_per_elem
                )
                * d,
                sfu_per_elem=prof.sfu_per_elem * d,
                bytes_read_per_elem=_F64 * d,
                bytes_written_per_elem=_F64,
                dependent_loads_per_elem=1.0,
                registers_per_thread=48,
            ),
            "pbest": KernelSpec(
                name="particle_pbest",
                flops_per_elem=1.0,
                bytes_read_per_elem=2 * _F64 + _F64 * d * 0.5,
                bytes_written_per_elem=_F64,
                registers_per_thread=24,
            ),
            "init": KernelSpec(
                name="particle_init",
                flops_per_elem=10.0 * _DRAWS_PER_ELEM,
                bytes_read_per_elem=state_traffic,
                bytes_written_per_elem=2 * _F64 + state_traffic,
                dependent_loads_per_elem=1.0,
                registers_per_thread=48,
            ),
        }
        # Interned: the memoized launch costs hit on identity.
        self._kernels = {k: hostcache.intern(v) for k, v in kernels.items()}

    def _particle_config(self, n: int):
        return thread_per_item_config(
            self.ctx.spec, n, threads_per_block=self.threads_per_block
        )

    def _build_live(self, problem: Problem, n: int) -> None:
        """The run's live accounting: one thread per particle for every
        kernel, the whole step (iv) as one ``particle_update`` launch."""
        launcher = self.ctx.launcher
        d = problem.dim
        config = self._particle_config(n)

        def launch(key: str, n_elems: int) -> LiveLaunch:
            return LiveLaunch(launcher, (self._kernels[key], n_elems, config))

        self._live = {
            "init": launch("init", n * d),
            "evaluate": launch("evaluate", n),
            "pbest": launch("pbest", n),
            "gbest": LiveLaunch(launcher, *self.ctx.reducer.passes(n)),
            "swarm": launch("update", n * d),
        }

    # -- step (i) ----------------------------------------------------------------
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        for buf in self._buffers:
            self.ctx.allocator.free(buf)
        self._buffers = []
        self._build_kernels(problem, params)
        n, d = n_particles, problem.dim
        alloc = self.ctx.allocator
        # fp64 swarm arrays + one XORWOW state per particle.
        self._buffers = [
            alloc.alloc_like((n, d), np.float64),  # positions
            alloc.alloc_like((n, d), np.float64),  # velocities
            alloc.alloc_like((n, d), np.float64),  # pbest positions
            alloc.alloc_like((n,), np.float64),  # pbest values
            alloc.alloc((_CURAND_STATE_BYTES * n)),  # curand states
        ]
        self._build_live(problem, n)
        with self._kernel("init"):
            return initialize_swarm(problem, n, rng, params.init_strategy)

    def _finalize(self, state: SwarmState) -> None:
        spec = self.ctx.spec
        self.clock.advance(6.0e-6 + state.dim * _F64 / spec.pcie_bandwidth)

    def _peak_device_bytes(self) -> int:
        return self.ctx.memory.high_water_bytes

    def profile_report(self):
        return self.ctx.profile_report()
