"""``fastpso``: the paper's element-wise GPU engine (Section 3).

The swarm update is decomposed into element-wise kernels over the ``n x d``
matrices of Eq. (4), launched with resource-aware geometry
(:func:`repro.gpusim.launch.resource_aware_config`), so occupancy stays at
1.0 regardless of the particle count — the core idea of the paper.  Three
memory backends reproduce Figure 6's comparison:

* ``global`` — plain global-memory kernels (the default, and the config the
  rest of the paper's tables call "fastpso");
* ``shared`` — the update staged through ``32 x 32`` shared-memory tiles
  (:mod:`repro.gpusim.sharedmem`); bit-identical numerics, different
  resource profile;
* ``tensorcore`` — the two Hadamard products issued as wmma fragment ops
  (:mod:`repro.gpusim.tensorcore`); numerics differ by fp16 rounding of the
  multiplicands, exactly like Volta HMMA.

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
    pbest_update,
    position_update,
    velocity_update,
)
from repro.core.topology import social_positions
from repro._compat import deprecated_kwargs
from repro.errors import InvalidParameterError
from repro.gpusim import hostcache
from repro.gpusim.context import GpuContext, make_context
from repro.gpusim.costmodel import GpuCostParams, kernel_cost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import SECTIONS
from repro.gpusim.kernel import Kernel, KernelSpec
from repro.gpusim.launch import resource_aware_config
from repro.gpusim.rng import ParallelRNG
from repro.gpusim.sharedmem import DEFAULT_TILE_SIZE, apply_tiled, shared_mem_spec
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
        self._kernels: dict[str, Kernel] = {}
        self._cfg_cache: dict[tuple[str, int], object] = {}
        self._persistent_buffers: list = []

    def _cfg(self, kernel_key: str, n_elems: int):
        """Resource-aware geometry honouring the kernel's occupancy limits.

        Invariant for a given (kernel, element count) on a fixed device, so
        results are cached on the engine: steady-state iterations skip even
        the memoized front door's key construction.  The cache is cleared
        whenever the kernel table is rebuilt (specs may change with the
        problem/params).
        """
        key = (kernel_key, n_elems)
        cfg = self._cfg_cache.get(key)
        if cfg is None:
            cfg = resource_aware_config(
                self.ctx.spec,
                n_elems,
                threads_per_block=self.threads_per_block,
                kernel_spec=self._kernels[kernel_key].spec,
            )
            if hostcache.cache_enabled():
                self._cfg_cache[key] = cfg
        return cfg

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
        self._cfg_cache.clear()
        clamped = params.velocity_clamp is not None
        base = self._velocity_base_spec(clamped)
        if self.backend == "global":
            vel_spec = base
            vel_semantics = velocity_update
        elif self.backend == "shared":
            vel_spec = shared_mem_spec(
                base, n_input_matrices=5, block_threads=self.threads_per_block
            )
            vel_semantics = self._tiled_velocity_update
        else:  # tensorcore
            vel_spec = tensor_core_spec(
                base, block_threads=self.threads_per_block
            )
            vel_semantics = self._wmma_velocity_update

        prof = problem.evaluator.profile()
        self._kernels = {
            "init_rng": Kernel(
                KernelSpec(
                    name="swarm_init_rng",
                    flops_per_elem=_RNG_FLOPS_PER_WORD,
                    bytes_read_per_elem=0.0,
                    bytes_written_per_elem=self._elem_bytes,
                    registers_per_thread=24,
                ),
                semantics=lambda problem, n, rng, strategy: initialize_swarm(
                    problem, n, rng, strategy, dtype=self.storage_dtype
                ),
            ),
            "weights_rng": Kernel(
                KernelSpec(
                    name="weights_rng",
                    flops_per_elem=_RNG_FLOPS_PER_WORD,
                    bytes_read_per_elem=0.0,
                    bytes_written_per_elem=self._elem_bytes,
                    registers_per_thread=24,
                ),
                # Drawn into the workspace arena: same Philox consumption
                # and values as a fresh draw, zero host allocation.
                semantics=lambda rng, n, d: draw_weights(
                    rng,
                    n,
                    d,
                    out=(
                        self._ws.array("l_weights", (n, d), self.storage_dtype),
                        self._ws.array("g_weights", (n, d), self.storage_dtype),
                    ),
                ),
            ),
            "velocity": Kernel(vel_spec, semantics=vel_semantics),
            "position": Kernel(
                KernelSpec(
                    name="swarm_position_update",
                    flops_per_elem=1.0 + (2.0 if params.clip_positions else 0.0),
                    bytes_read_per_elem=2 * self._elem_bytes,
                    bytes_written_per_elem=self._elem_bytes,
                    registers_per_thread=16,
                    # P and the just-written V' — both hot from the velocity
                    # kernel one launch earlier.
                    reread_fraction=1.0,
                    working_set_bytes_per_elem=2.0 * self._elem_bytes,
                ),
                semantics=position_update,
            ),
            "evaluate": Kernel(
                KernelSpec(
                    name="evaluation_kernel",
                    flops_per_elem=prof.flops_per_elem
                    + prof.reduction_flops_per_elem,
                    sfu_per_elem=prof.sfu_per_elem,
                    bytes_read_per_elem=self._elem_bytes,
                    bytes_written_per_elem=0.0,  # n values folded in below
                    registers_per_thread=32,
                    # Reads the position matrix written one launch earlier.
                    reread_fraction=1.0,
                    working_set_bytes_per_elem=float(self._elem_bytes),
                ),
                semantics=problem.evaluator.evaluate,
            ),
            "pbest": Kernel(
                KernelSpec(
                    name="pbest_update",
                    flops_per_elem=1.0,
                    bytes_read_per_elem=2 * _F64,
                    bytes_written_per_elem=_F64,
                    registers_per_thread=16,
                    # n-length fitness/pbest vectors: tiny, cache-resident.
                    reread_fraction=1.0,
                    working_set_bytes_per_elem=2.0 * _F64,
                ),
                semantics=pbest_update,
            ),
            # Optional fusion of steps (iv)'s two kernels: the paper notes
            # the position update depends on the updated velocity but each
            # *element's* position only depends on its own element, so the
            # fused kernel keeps v' in registers and writes both arrays —
            # saving one launch and the 8 bytes/element of re-reading P and
            # V' from DRAM.
            "fused_update": Kernel(
                KernelSpec(
                    name="swarm_fused_update",
                    flops_per_elem=11.0 + (2.0 if clamped else 0.0),
                    bytes_read_per_elem=5 * self._elem_bytes,
                    bytes_written_per_elem=2 * self._elem_bytes,
                    registers_per_thread=40,
                    # Same re-read structure as the unfused velocity kernel.
                    reread_fraction=3.0 / 5.0,
                    working_set_bytes_per_elem=3.0 * self._elem_bytes,
                ),
                semantics=self._fused_update,
            ),
            # Cost-only entry: the position copy happens inside
            # ``pbest_update`` (one fused kernel on real hardware), so its
            # modelled time is *charged* (Launcher.charge) rather than
            # launched — no dedicated no-op dispatch.
            "pbest_copy": Kernel(
                KernelSpec(
                    name="pbest_position_copy",
                    flops_per_elem=0.0,
                    bytes_read_per_elem=self._elem_bytes,
                    bytes_written_per_elem=self._elem_bytes,
                    registers_per_thread=16,
                    # Copies the just-evaluated position rows.
                    reread_fraction=1.0,
                    working_set_bytes_per_elem=float(self._elem_bytes),
                ),
                semantics=lambda: None,  # never dispatched
            ),
        }
        if problem.evaluator.granularity == "particle":
            # Thread-per-particle schema kernel: each thread runs the user
            # lambda over its particle's d values.  Built once here rather
            # than per evaluation call.
            d = problem.dim
            spec = self._kernels["evaluate"].spec.scaled(
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
            self._kernels["evaluate_particle"] = Kernel(
                spec, problem.evaluator.evaluate
            )

    # -- backend-specific velocity semantics -----------------------------------
    def _vel_scratch(self, n: int, d: int):
        """Workspace pull-term buffers, or None when the float32 in-place
        fast path can't apply (fp16 storage keeps its own promotion)."""
        if self.storage_dtype != np.float32:
            return None
        return (
            self._ws.array("vel_pull_1", (n, d), np.float32),
            self._ws.array("vel_pull_2", (n, d), np.float32),
        )

    def _fused_update(
        self,
        velocities,
        positions,
        pbest_positions,
        social,
        l_mat,
        g_mat,
        params,
        vbounds,
        problem,
    ):
        """Fused Eq. (4) + Eq. (2): identical numerics, one kernel."""
        n, d = positions.shape
        velocity_update(
            velocities,
            positions,
            pbest_positions,
            social,
            l_mat,
            g_mat,
            params,
            vbounds,
            out=velocities,
            scratch=self._vel_scratch(n, d),
        )
        position_update(positions, velocities, problem, params)

    def _tiled_velocity_update(
        self,
        velocities,
        positions,
        pbest_positions,
        social,
        l_mat,
        g_mat,
        params,
        vbounds,
        *,
        out,
    ):
        """Shared-memory backend: same math, executed tile by tile."""
        social_full = np.broadcast_to(social, positions.shape)
        tile_buf = self._ws.array(
            "tile_out", (DEFAULT_TILE_SIZE, DEFAULT_TILE_SIZE), velocities.dtype
        )

        def tile_fn(v, p, pb, soc, l_w, g_w):
            # One reused tile-sized buffer; edge tiles take a view of it.
            tile_out = tile_buf[: v.shape[0], : v.shape[1]]
            velocity_update(
                v, p, pb, soc, l_w, g_w, params, None, out=tile_out
            )
            return tile_out

        apply_tiled(
            out, tile_fn, velocities, positions, pbest_positions,
            social_full, l_mat, g_mat,
        )
        if vbounds is not None:
            lo, hi = vbounds
            np.clip(out, lo.astype(np.float32), hi.astype(np.float32), out=out)
        return out

    def _wmma_velocity_update(
        self,
        velocities,
        positions,
        pbest_positions,
        social,
        l_mat,
        g_mat,
        params,
        vbounds,
        *,
        out,
    ):
        """Tensor-core backend: Hadamard products via fp16 fragment ops."""
        social_full = self._ws.array(
            "social_full", positions.shape, np.float32
        )
        np.copyto(social_full, social)
        return velocity_update(
            velocities,
            positions,
            pbest_positions,
            social_full,
            l_mat,
            g_mat,
            params,
            vbounds,
            out=out,
            multiply_add=fragment_multiply_add,
        )

    # -- step hooks -------------------------------------------------------------
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
        cfg = self._cfg("init_rng", 2 * n * d)
        state = self.ctx.launcher.launch(
            self._kernels["init_rng"],
            2 * n * d,
            problem,
            n,
            rng,
            params.init_strategy,
            config=cfg,
        )
        return state

    def _evaluate(self, problem: Problem, state: SwarmState) -> np.ndarray:
        n, d = state.n_particles, state.dim
        if "evaluate_particle" in self._kernels:
            cfg = self._cfg("evaluate_particle", n)
            return self.ctx.launcher.launch(
                self._kernels["evaluate_particle"],
                n,
                state.positions,
                config=cfg,
            )
        cfg = self._cfg("evaluate", n * d)
        return self.ctx.launcher.launch(
            self._kernels["evaluate"], n * d, state.positions, config=cfg
        )

    def _update_pbest(self, state: SwarmState, values: np.ndarray) -> None:
        n = state.n_particles
        cfg = self._cfg("pbest", n)
        mask = self.ctx.launcher.launch(
            self._kernels["pbest"], n, state, values, config=cfg
        )
        self._charge_pbest_copy(int(np.count_nonzero(mask)), state.dim)

    def _charge_pbest_copy(self, improved: int, dim: int) -> None:
        """Account the d-wide position copies for the improved particles.

        The copy's semantics already happened inside ``pbest_update``; only
        its modelled time and profile row are added here, without a no-op
        kernel dispatch.  The charge is *dynamic* (data-dependent size), and
        always present — a 0.0-second charge when nothing improved — so a
        captured launch graph keeps a fixed charge-slot layout across
        iterations (``x + 0.0`` is bitwise identity, so simulated times are
        unchanged).
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

    def _update_gbest(self, state: SwarmState) -> None:
        idx, val = self.ctx.reducer.argmin(state.pbest_values)
        if val < state.gbest_value:
            state.gbest_value = val
            state.gbest_index = idx
            state.gbest_position = state.pbest_positions[idx].copy()

    def _update_swarm(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
    ) -> None:
        params = self._scheduled_params(params)
        n, d = state.n_particles, state.dim
        alloc = self.ctx.allocator
        # Per-iteration weight matrices: fresh allocations each time, so the
        # allocator flavour (caching vs direct) is what Table 4 measures.
        l_buf = alloc.alloc_like((n, d), self.storage_dtype)
        g_buf = alloc.alloc_like((n, d), self.storage_dtype)
        try:
            cfg_2nd = self._cfg("weights_rng", 2 * n * d)
            l_mat, g_mat = self.ctx.launcher.launch(
                self._kernels["weights_rng"], 2 * n * d, rng, n, d, config=cfg_2nd
            )
            social = social_positions(state, params.topology)
            vbounds = self._current_velocity_bounds(problem, params)
            if self.fuse_update:
                self.ctx.launcher.launch(
                    self._kernels["fused_update"],
                    n * d,
                    state.velocities,
                    state.positions,
                    state.pbest_positions,
                    social,
                    l_mat,
                    g_mat,
                    params,
                    vbounds,
                    problem,
                    config=self._cfg("fused_update", n * d),
                )
            else:
                vel_kwargs = {}
                if self.backend == "global":
                    scratch = self._vel_scratch(n, d)
                    if scratch is not None:
                        vel_kwargs["scratch"] = scratch
                self.ctx.launcher.launch(
                    self._kernels["velocity"],
                    n * d,
                    state.velocities,
                    state.positions,
                    state.pbest_positions,
                    social,
                    l_mat,
                    g_mat,
                    params,
                    vbounds,
                    out=state.velocities,
                    config=self._cfg("velocity", n * d),
                    **vel_kwargs,
                )
                self.ctx.launcher.launch(
                    self._kernels["position"],
                    n * d,
                    state.positions,
                    state.velocities,
                    problem,
                    params,
                    config=self._cfg("position", n * d),
                )
        finally:
            alloc.free(l_buf)
            alloc.free(g_buf)

    # -- launch-graph replay ----------------------------------------------------
    def _graph_blockers(self) -> str | None:
        if self.ctx.launcher.record_launches:
            return "record-launches"
        if self.ctx.launcher.fault_injector is not None:
            return "fault-injector"
        return None

    def _plan_launch(self, key: str, n_elems: int, section: str):
        """Resolve one launch's (kernel, config, cost) through the memoized
        front doors, plus its capture-comparable plan tuple."""
        kernel = self._kernels[key]
        cfg = self._cfg(key, n_elems)
        cost = kernel_cost(
            self.ctx.spec, kernel.spec, cfg, n_elems,
            self.ctx.launcher.cost_params,
        )
        return kernel, cost, (kernel.spec.name, section, n_elems, cfg, cost)

    def _graph_build_replay(self, problem, params, state, rng):
        """One pre-bound steady-state iteration (see :mod:`repro.gpusim.graph`).

        Mirrors the eager four-section body exactly: the same semantics
        callables in the same order, one ``clock.advance(cost.seconds)`` per
        launch (costs come from the same memoized ``kernel_cost`` front
        door, so every float add is bitwise-equal to eager's), real
        allocator alloc/free for the per-iteration weight matrices (pool
        hits advance the clock natively and keep allocator counters
        truthful), and the same dynamic pbest-copy charge helper.  Dynamic
        inputs — scheduled inertia, adaptive velocity bounds, the social
        topology view — are fetched at call time, not baked in.
        """
        n, d = state.n_particles, state.dim
        clock = self.clock
        alloc = self.ctx.allocator
        plan: list = []

        if "evaluate_particle" in self._kernels:
            eval_kernel, eval_cost, entry = self._plan_launch(
                "evaluate_particle", n, "eval"
            )
        else:
            eval_kernel, eval_cost, entry = self._plan_launch(
                "evaluate", n * d, "eval"
            )
        plan.append(entry)
        eval_sem = eval_kernel.semantics

        pbest_kernel, pbest_cost, entry = self._plan_launch("pbest", n, "pbest")
        plan.append(entry)

        argmin_run, argmin_launches = self.ctx.reducer.prebound_argmin(n)
        plan.extend(argmin_launches)

        weights_kernel, weights_cost, entry = self._plan_launch(
            "weights_rng", 2 * n * d, "swarm"
        )
        plan.append(entry)
        weights_sem = weights_kernel.semantics

        if self.fuse_update:
            fused_kernel, fused_cost, entry = self._plan_launch(
                "fused_update", n * d, "swarm"
            )
            plan.append(entry)
            fused_sem = fused_kernel.semantics
        else:
            vel_kernel, vel_cost, entry = self._plan_launch(
                "velocity", n * d, "swarm"
            )
            plan.append(entry)
            vel_sem = vel_kernel.semantics
            pos_kernel, pos_cost, entry = self._plan_launch(
                "position", n * d, "swarm"
            )
            plan.append(entry)
            pos_sem = pos_kernel.semantics

        def replay() -> None:
            with clock.section("eval"):
                values = eval_sem(state.positions)
                clock.advance(eval_cost.seconds)
            with clock.section("pbest"):
                mask = pbest_update(state, values)
                clock.advance(pbest_cost.seconds)
                self._charge_pbest_copy(int(np.count_nonzero(mask)), d)
            with clock.section("gbest"):
                idx, val = argmin_run(state.pbest_values)
                if val < state.gbest_value:
                    state.gbest_value = val
                    state.gbest_index = idx
                    state.gbest_position = state.pbest_positions[idx].copy()
            with clock.section("swarm"):
                p = self._scheduled_params(params)
                l_buf = alloc.alloc_like((n, d), self.storage_dtype)
                g_buf = alloc.alloc_like((n, d), self.storage_dtype)
                try:
                    l_mat, g_mat = weights_sem(rng, n, d)
                    clock.advance(weights_cost.seconds)
                    social = social_positions(state, p.topology)
                    vbounds = self._current_velocity_bounds(problem, p)
                    if self.fuse_update:
                        fused_sem(
                            state.velocities,
                            state.positions,
                            state.pbest_positions,
                            social,
                            l_mat,
                            g_mat,
                            p,
                            vbounds,
                            problem,
                        )
                        clock.advance(fused_cost.seconds)
                    else:
                        vel_kwargs = {}
                        if self.backend == "global":
                            scratch = self._vel_scratch(n, d)
                            if scratch is not None:
                                vel_kwargs["scratch"] = scratch
                        vel_sem(
                            state.velocities,
                            state.positions,
                            state.pbest_positions,
                            social,
                            l_mat,
                            g_mat,
                            p,
                            vbounds,
                            out=state.velocities,
                            **vel_kwargs,
                        )
                        clock.advance(vel_cost.seconds)
                        pos_sem(state.positions, state.velocities, problem, p)
                        clock.advance(pos_cost.seconds)
                finally:
                    alloc.free(l_buf)
                    alloc.free(g_buf)

        return replay, plan

    def _graph_build_native(self, graph, problem, params, state):
        """This engine's part of the native tier (see
        :func:`repro.gpusim.fastpath.build_native`).

        Refuses backends and storage the C step does not implement (the
        shared/tensorcore backends stage differently, fp16 double-rounds).
        The charges are the captured launch seconds, section by section,
        around real alloc/free calls for the per-iteration weight buffers
        (pool hits charge the clock themselves and keep the Table 4
        allocator counters exact), plus the live pbest-copy charge — the
        eager iteration's float additions in its order.
        """
        if self.backend != "global":
            return f"native-unsupported-backend:{self.backend}"
        if self.storage_dtype != np.float32:
            return "native-unsupported-storage-dtype"
        eval_key = (
            "evaluate_particle" if "evaluate_particle" in self._kernels
            else "evaluate"
        )
        eval_s, pbest_s, gbest_s, swarm_s = (
            graph.launch_seconds(section) for section in SECTIONS
        )
        n, d = state.n_particles, state.dim
        clock = self.clock
        alloc = self.ctx.allocator

        def charge(improved: int) -> None:
            advance = clock.advance
            with clock.section("eval"):
                for s in eval_s:
                    advance(s)
            with clock.section("pbest"):
                for s in pbest_s:
                    advance(s)
                self._charge_pbest_copy(improved, d)
            with clock.section("gbest"):
                for s in gbest_s:
                    advance(s)
            with clock.section("swarm"):
                l_buf = alloc.alloc_like((n, d), np.float32)
                g_buf = alloc.alloc_like((n, d), np.float32)
                try:
                    for s in swarm_s:
                        advance(s)
                finally:
                    alloc.free(l_buf)
                    alloc.free(g_buf)

        return self._kernels[eval_key].semantics, charge

    def _warm_resume(
        self, problem: Problem, params: PSOParams, n_particles: int
    ) -> None:
        # A resumed run starts with an empty allocator pool, but iteration k
        # of the uninterrupted run takes pool *hits* for the per-iteration
        # weight matrices (the first iteration's misses already populated the
        # pool).  Pre-warm with one alloc/free pair of the same shapes so the
        # resumed iterations see identical pool behaviour — and the memory
        # high-water mark (peak_device_bytes) matches too.
        from repro.gpusim.alloc import CachingAllocator

        alloc = self.ctx.allocator
        if not isinstance(alloc, CachingAllocator):
            return  # direct allocator: every iteration misses either way
        n, d = n_particles, problem.dim
        l_buf = alloc.alloc_like((n, d), self.storage_dtype)
        g_buf = alloc.alloc_like((n, d), self.storage_dtype)
        alloc.free(l_buf)
        alloc.free(g_buf)

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
