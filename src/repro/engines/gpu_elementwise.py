"""``fastpso``: the paper's element-wise GPU engine (Section 3).

The swarm update is decomposed into element-wise kernels over the ``n x d``
matrices of Eq. (4), launched with resource-aware geometry
(:func:`repro.gpusim.launch.resource_aware_config`), so occupancy stays at
1.0 regardless of the particle count — the core idea of the paper.  Three
memory backends reproduce Figure 6's comparison:

* ``global`` — plain global-memory kernels (the default, and the config the
  rest of the paper's tables call "fastpso");
* ``shared`` — the update staged through ``32 x 32`` shared-memory tiles
  (:mod:`repro.gpusim.sharedmem`);
* ``tensorcore`` — the two Hadamard products issued as wmma fragment ops
  (:mod:`repro.gpusim.tensorcore`).

A backend is a cost profile: all three velocity kernels run
:func:`~repro.core.swarm.velocity_update`, and differ in their
:class:`~repro.gpusim.kernel.KernelSpec` only — plus, for ``tensorcore``,
``multiply_add=fragment_multiply_add``, so its numerics differ from the
other two by fp16 rounding of the multiplicands, exactly like Volta HMMA.
``shared`` is bit-identical to ``global``.

The two ``n x d`` weight matrices are *allocated every iteration* and freed
after use; with the caching allocator (default) this costs a pool hit, with
the direct allocator it costs a cudaMalloc/cudaFree pair — the Table 4
comparison.  Device buffers model capacity and allocation behaviour (a swarm
that exceeds the 16 GB card raises :class:`DeviceOutOfMemoryError`); array
storage itself is host-backed by design of the simulator.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.initializers import initialize_swarm
from repro.core.swarm import (
    SwarmState,
    draw_weights,
    position_update,
    velocity_update,
)
from repro.core.topology import social_positions
from repro._compat import deprecated_kwargs
from repro.errors import InvalidParameterError
from repro.gpusim import hostcache
from repro.gpusim.alloc import CachingAllocator
from repro.gpusim.context import GpuContext, make_context
from repro.gpusim.costmodel import GpuCostParams
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import LiveLaunch
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.launch import resource_aware_config
from repro.gpusim.rng import ParallelRNG
from repro.gpusim.sharedmem import shared_mem_spec
from repro.gpusim.tensorcore import (
    fragment_multiply_add,
    supports_tensor_cores,
    tensor_core_spec,
)

__all__ = ["FastPSOEngine", "BACKENDS"]

BACKENDS = ("global", "shared", "tensorcore")

_F32 = 4
_F64 = 8

#: Philox4x32-10 is ~12 integer ops per 32-bit word of output.
_RNG_FLOPS_PER_WORD = 12.0


class _WeightScratch:
    """Live accounting of step (iv) as a whole: the two ``n x d`` weight
    matrices are device allocations made before the step's kernels and
    freed after them, also when a kernel fails — so the allocator flavour
    (caching vs direct) is what Table 4 measures."""

    __slots__ = ("allocator", "shape", "dtype", "buffers")

    def __init__(self, allocator, shape: tuple, dtype) -> None:
        self.allocator = allocator
        self.shape = shape
        self.dtype = dtype
        self.buffers = ()

    def __enter__(self) -> None:
        alloc = self.allocator
        l_buf = alloc.alloc_like(self.shape, self.dtype)
        g_buf = alloc.alloc_like(self.shape, self.dtype)
        self.buffers = (l_buf, g_buf)

    def __exit__(self, *exc) -> bool:
        for buf in self.buffers:
            self.allocator.free(buf)
        self.buffers = ()
        return False


class FastPSOEngine(Engine):
    """Element-wise PSO on the simulated GPU (the paper's FastPSO).

    ``device`` is the simulated device spec (defaults to the paper's Tesla
    V100) — the same keyword the :class:`~repro.core.fastpso.FastPSO`
    facade uses; the old ``spec=`` spelling is deprecated.
    """

    is_gpu = True
    supports_graph = True

    @deprecated_kwargs(spec="device")
    def __init__(
        self,
        device: DeviceSpec | None = None,
        *,
        backend: str = "global",
        caching: bool = True,
        threads_per_block: int = 256,
        cost_params: GpuCostParams | None = None,
        fuse_update: bool = False,
        half_storage: bool = False,
        record_launches: bool = False,
        graph: bool = True,
    ) -> None:
        super().__init__()
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if fuse_update and backend != "global":
            raise InvalidParameterError(
                "fused velocity+position update is only available on the "
                "global-memory backend (tiling/wmma stage velocities only)"
            )
        if half_storage and backend == "tensorcore":
            raise InvalidParameterError(
                "half_storage is redundant with the tensorcore backend, "
                "which already rounds the multiplicands to fp16"
            )
        self.ctx: GpuContext = make_context(
            device,
            caching=caching,
            cost_params=cost_params,
            record_launches=record_launches,
        )
        if backend == "tensorcore" and not supports_tensor_cores(self.ctx.spec):
            raise InvalidParameterError(
                f"device {self.ctx.spec.name!r} has no tensor cores"
            )
        self.ctx.spec.validate_block(threads_per_block)  # fail fast
        self.clock = self.ctx.clock  # engine and device share one timeline
        self.backend = backend
        self.caching = caching
        self.threads_per_block = threads_per_block
        self.fuse_update = fuse_update
        self.half_storage = half_storage
        # Storage precision of the swarm matrices (paper future work:
        # exploiting new hardware features).  fp16 halves the DRAM traffic
        # of every swarm kernel at the cost of ~1e-3 relative rounding.
        self.storage_dtype = np.float16 if half_storage else np.float32
        self.name = "fastpso"
        if backend != "global":
            self.name += f"-{backend}"
        if not caching:
            self.name += "-nocache"
        if fuse_update:
            self.name += "-fused"
        if half_storage:
            self.name += "-fp16"
        self.graph_enabled = bool(graph)
        self._multiply_add = (
            fragment_multiply_add if backend == "tensorcore" else None
        )
        self._kernels: dict[str, KernelSpec] = {}
        self._persistent_buffers: list = []

    def _cfg(self, kernel_key: str, n_elems: int):
        """Resource-aware geometry honouring the kernel's occupancy limits.

        A hit of the process-wide :func:`resource_aware_config` memo for
        any (kernel, element count) an earlier engine launched: the device
        and kernel specs are interned, so the key compares by identity.
        """
        return resource_aware_config(
            self.ctx.spec,
            n_elems,
            threads_per_block=self.threads_per_block,
            kernel_spec=self._kernels[kernel_key],
        )

    @property
    def _elem_bytes(self) -> int:
        """Bytes per stored swarm-matrix element (fp16 mode halves them)."""
        return 2 if self.half_storage else _F32

    # -- kernel construction ----------------------------------------------------
    def _velocity_base_spec(self, clamped: bool) -> KernelSpec:
        # Reads V, P, L, G and the pbest-position matrix; writes V.  Of the
        # five input matrices, three (V, P, pbest positions) are persistent
        # swarm state re-read every iteration — the traffic the L1/L2
        # hit-rate model can serve from cache on devices whose hierarchy
        # holds the 3-matrix working set (cost model v2); the two weight
        # matrices are fresh RNG output and always stream.
        eb = self._elem_bytes
        return KernelSpec(
            name="swarm_velocity_update",
            flops_per_elem=10.0 + (2.0 if clamped else 0.0),
            bytes_read_per_elem=5 * eb,
            bytes_written_per_elem=eb,
            registers_per_thread=32,
            reread_fraction=3.0 / 5.0,
            working_set_bytes_per_elem=3.0 * eb,
        )

    def _build_kernels(self, problem: Problem, params: PSOParams) -> None:
        clamped = params.velocity_clamp is not None
        base = self._velocity_base_spec(clamped)
        if self.backend == "global":
            vel_spec = base
        elif self.backend == "shared":
            vel_spec = shared_mem_spec(
                base, n_input_matrices=5, block_threads=self.threads_per_block
            )
        else:  # tensorcore
            vel_spec = tensor_core_spec(
                base, block_threads=self.threads_per_block
            )

        prof = problem.evaluator.profile()
        eb = self._elem_bytes
        kernels = {
            "init_rng": KernelSpec(
                name="swarm_init_rng",
                flops_per_elem=_RNG_FLOPS_PER_WORD,
                bytes_read_per_elem=0.0,
                bytes_written_per_elem=eb,
                registers_per_thread=24,
            ),
            "weights_rng": KernelSpec(
                name="weights_rng",
                flops_per_elem=_RNG_FLOPS_PER_WORD,
                bytes_read_per_elem=0.0,
                bytes_written_per_elem=eb,
                registers_per_thread=24,
            ),
            "velocity": vel_spec,
            "position": KernelSpec(
                name="swarm_position_update",
                flops_per_elem=1.0 + (2.0 if params.clip_positions else 0.0),
                bytes_read_per_elem=2 * eb,
                bytes_written_per_elem=eb,
                registers_per_thread=16,
                # P and the just-written V' — both hot from the velocity
                # kernel one launch earlier.
                reread_fraction=1.0,
                working_set_bytes_per_elem=2.0 * eb,
            ),
            "evaluate": KernelSpec(
                name="evaluation_kernel",
                flops_per_elem=prof.flops_per_elem
                + prof.reduction_flops_per_elem,
                sfu_per_elem=prof.sfu_per_elem,
                bytes_read_per_elem=eb,
                bytes_written_per_elem=0.0,  # n values folded in below
                registers_per_thread=32,
                # Reads the position matrix written one launch earlier.
                reread_fraction=1.0,
                working_set_bytes_per_elem=float(eb),
            ),
            "pbest": KernelSpec(
                name="pbest_update",
                flops_per_elem=1.0,
                bytes_read_per_elem=2 * _F64,
                bytes_written_per_elem=_F64,
                registers_per_thread=16,
                # n-length fitness/pbest vectors: tiny, cache-resident.
                reread_fraction=1.0,
                working_set_bytes_per_elem=2.0 * _F64,
            ),
            # Optional fusion of steps (iv)'s two kernels: the paper notes
            # the position update depends on the updated velocity but each
            # *element's* position only depends on its own element, so the
            # fused kernel keeps v' in registers and writes both arrays —
            # saving one launch and the 8 bytes/element of re-reading P and
            # V' from DRAM.
            "fused_update": KernelSpec(
                name="swarm_fused_update",
                flops_per_elem=11.0 + (2.0 if clamped else 0.0),
                bytes_read_per_elem=5 * eb,
                bytes_written_per_elem=2 * eb,
                registers_per_thread=40,
                # Same re-read structure as the unfused velocity kernel.
                reread_fraction=3.0 / 5.0,
                working_set_bytes_per_elem=3.0 * eb,
            ),
            # The position copy happens inside ``pbest_update`` (one fused
            # kernel on real hardware); its modelled time is charged as a
            # dynamic slot by _charge_pbest_copy.
            "pbest_copy": KernelSpec(
                name="pbest_position_copy",
                flops_per_elem=0.0,
                bytes_read_per_elem=eb,
                bytes_written_per_elem=eb,
                registers_per_thread=16,
                # Copies the just-evaluated position rows.
                reread_fraction=1.0,
                working_set_bytes_per_elem=float(eb),
            ),
        }
        if problem.evaluator.granularity == "particle":
            # Thread-per-particle schema kernel: each thread runs the user
            # lambda over its particle's d values.
            d = problem.dim
            kernels["evaluate_particle"] = kernels["evaluate"].scaled(
                name="evaluation_kernel_particle",
                flops_per_elem=(
                    prof.flops_per_elem + prof.reduction_flops_per_elem
                )
                * d,
                sfu_per_elem=prof.sfu_per_elem * d,
                bytes_read_per_elem=_F32 * d,
                bytes_written_per_elem=_F64,
                dependent_loads_per_elem=1.0,
            )
        # Interned, so two engines with the same configuration hold the
        # same spec objects and every memo hit compares by identity.
        self._kernels = {k: hostcache.intern(v) for k, v in kernels.items()}

    def _build_live(self, problem: Problem, n: int) -> None:
        """The run's live accounting: every kernel's spec, size and cached
        resource-aware geometry, the gbest reduction's passes, and the
        weight-matrix allocations around step (iv)."""
        launcher = self.ctx.launcher
        d = problem.dim

        def launch(key: str, n_elems: int) -> LiveLaunch:
            config = self._cfg(key, n_elems)
            return LiveLaunch(launcher, (self._kernels[key], n_elems, config))

        if "evaluate_particle" in self._kernels:
            evaluate = launch("evaluate_particle", n)
        else:
            evaluate = launch("evaluate", n * d)
        self._live = {
            "init": launch("init_rng", 2 * n * d),
            "evaluate": evaluate,
            "pbest": launch("pbest", n),
            "gbest": LiveLaunch(launcher, *self.ctx.reducer.passes(n)),
            "swarm": _WeightScratch(
                self.ctx.allocator, (n, d), self.storage_dtype
            ),
            "weights_rng": launch("weights_rng", 2 * n * d),
            "velocity": launch("velocity", n * d),
            "position": launch("position", n * d),
            "fused_update": launch("fused_update", n * d),
        }

    # -- step (i) ----------------------------------------------------------------
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        self._release_persistent()
        self._build_kernels(problem, params)
        n, d = n_particles, problem.dim
        # Persistent swarm storage: P, V, pbest positions (f32); pbest values
        # (f64).  Raises DeviceOutOfMemoryError when the card cannot hold it.
        alloc = self.ctx.allocator
        self._persistent_buffers = [
            alloc.alloc_like((n, d), self.storage_dtype),  # positions
            alloc.alloc_like((n, d), self.storage_dtype),  # velocities
            alloc.alloc_like((n, d), self.storage_dtype),  # pbest positions
            alloc.alloc_like((n,), np.float64),  # pbest values
            alloc.alloc_like((n,), np.float64),  # current values
        ]
        self._build_live(problem, n)
        with self._kernel("init"):
            return initialize_swarm(
                problem, n, rng, params.init_strategy, dtype=self.storage_dtype
            )

    def _charge_pbest_copy(self, improved: int, dim: int) -> None:
        """Account the d-wide position copies for the improved particles.

        The copy's numerics already happened inside ``pbest_update``; only
        its modelled time and profile row are added here, without a fault
        hook.  The charge is *dynamic* (data-dependent size), and always
        present — a 0.0-second charge when nothing improved — so a captured
        launch graph keeps a fixed charge-slot layout across iterations
        (``x + 0.0`` is bitwise identity, so simulated times are unchanged).
        """
        if improved:
            copy_elems = improved * dim
            self.ctx.launcher.charge(
                self._kernels["pbest_copy"],
                copy_elems,
                config=self._cfg("pbest_copy", copy_elems),
                dynamic=True,
            )
        else:
            self.clock.advance_dynamic(0.0)

    # -- step (iv) ---------------------------------------------------------------
    def _swarm_numerics(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
        kernel,
    ) -> None:
        """Step (iv)'s kernels in order, each inside *kernel*: the weight
        draw, then the fused update or the velocity kernel followed by the
        position kernel.  This is :meth:`Engine._swarm_numerics` with the
        tensor-core backend's ``multiply_add`` in the velocity kernel."""
        n, d = state.n_particles, state.dim
        dtype = self.storage_dtype
        with kernel("weights_rng"):
            l_mat, g_mat = draw_weights(
                rng, n, d, out=self._weight_buffers(n, d, dtype)
            )
        args = (
            state.velocities,
            state.positions,
            state.pbest_positions,
            social_positions(state, params.topology),
            l_mat,
            g_mat,
            params,
            self._velocity_clip(problem, params),
        )
        if self.fuse_update:
            with kernel("fused_update"):
                velocity_update(
                    *args,
                    out=state.velocities,
                    scratch=self._vel_scratch(n, d, dtype),
                )
                position_update(
                    state.positions, state.velocities, problem, params
                )
            return
        with kernel("velocity"):
            velocity_update(
                *args,
                out=state.velocities,
                multiply_add=self._multiply_add,
                # The tensor-core kernel's multiply_add never reads the
                # scratch.
                scratch=(
                    None
                    if self._multiply_add is not None
                    else self._vel_scratch(n, d, dtype)
                ),
            )
        with kernel("position"):
            position_update(state.positions, state.velocities, problem, params)

    # -- launch graphs -----------------------------------------------------------
    def _graph_blockers(self) -> str | None:
        if self.ctx.launcher.record_launches:
            return "record-launches"
        if self.ctx.launcher.fault_injector is not None:
            return "fault-injector"
        return None

    def _graph_build_native(self) -> str | None:
        """This engine's refusal of the native tier (see
        :func:`repro.gpusim.fastpath.build_native`): the C step implements
        neither tensor-core fp16 rounding of the multiplicands nor the fp16
        storage double rounding.  The shared backend runs the global
        backend's numerics and is still refused, so it keeps the Python
        replay tier.
        """
        if self.backend != "global":
            return f"native-unsupported-backend:{self.backend}"
        if self.storage_dtype != np.float32:
            return "native-unsupported-storage-dtype"
        return None

    def _warm_resume(
        self, problem: Problem, params: PSOParams, n_particles: int
    ) -> None:
        # A resumed run starts with an empty allocator pool, but iteration k
        # of the uninterrupted run takes pool *hits* for the per-iteration
        # weight matrices (the first iteration's misses already populated the
        # pool).  Pre-warm with one alloc/free pair of the same shapes so the
        # resumed iterations see identical pool behaviour — and the memory
        # high-water mark (peak_device_bytes) matches too.  The direct
        # allocator misses every iteration either way.
        if isinstance(self.ctx.allocator, CachingAllocator):
            with self._kernel("swarm"):
                pass

    def _finalize(self, state: SwarmState) -> None:
        # Device-to-host copy of the result vector.
        spec = self.ctx.spec
        nbytes = state.dim * _F32
        self.clock.advance(6.0e-6 + nbytes / spec.pcie_bandwidth)
        self._release_persistent()

    def _release_persistent(self) -> None:
        for buf in self._persistent_buffers:
            self.ctx.allocator.free(buf)
        self._persistent_buffers = []

    def _peak_device_bytes(self) -> int:
        return self.ctx.memory.high_water_bytes

    # -- introspection ----------------------------------------------------------
    def profile_report(self):
        """Profiling over every launch since the engine was created/reset."""
        return self.ctx.profile_report()
