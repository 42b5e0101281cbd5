"""Shared machinery for the CPU engines (fastpso-seq / fastpso-omp).

Both are the authors' C++ ports of FastPSO: identical algorithm and RNG
stream, compiled with ``-O3``.  The numerics here are the shared module
functions from :mod:`repro.core.swarm`; what this base class adds is the
*timing*: each step charges the simulated clock with a
:func:`repro.gpusim.costmodel.cpu_loop_cost` roofline built from the
problem's shapes and evaluation profile.

The per-step cost layout mirrors the C++ code the paper describes:

* ``init`` — fill P and V with 2·n·d PRNG draws.
* ``eval`` — one pass over P applying the evaluation profile.
* ``pbest`` — n compares, plus a d-element row copy per improvement.
* ``gbest`` — an n-element scan.
* ``swarm`` — the fused update loop: 2 inline PRNG draws + Eq. (4)/(2)
  arithmetic + the array traffic for V, P and the pbest positions.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import (
    SwarmState,
    draw_initial_state,
    draw_weights,
    gbest_scan,
    pbest_update,
    position_update,
    velocity_update,
)
from repro.core.topology import social_positions
from repro.gpusim.costmodel import CpuSpec, cpu_loop_cost, xeon_e5_2640v4
from repro.gpusim.rng import ParallelRNG

__all__ = ["CpuEngineBase"]

# float32 arrays, matching the CUDA implementation the C++ code was ported
# from.
_F32 = 4


class CpuEngineBase(Engine):
    """Template for compiled-CPU engines; subclasses fix the thread count."""

    #: Number of OS threads the engine uses (1 = sequential).
    threads: int = 1
    #: Fraction of the PRNG work that actually parallelises across threads.
    #: Naive OpenMP ports draw from a shared libc generator whose internal
    #: lock serialises the calls; the paper's fastpso-omp scaling (~1.4x on
    #: 20 cores) is reproduced by keeping this near zero.
    rng_parallel_efficiency: float = 0.0

    supports_graph = True

    def __init__(self, cpu: CpuSpec | None = None, *, graph: bool = True) -> None:
        super().__init__()
        self.cpu = cpu or xeon_e5_2640v4()
        self.graph_enabled = bool(graph)

    # -- timing helpers -----------------------------------------------------
    def _charge(self, n_elems: int, **mix: float) -> None:
        cost = cpu_loop_cost(self.cpu, n_elems, threads=self.threads, **mix)
        self.clock.advance(cost.seconds)

    def _charge_dynamic(self, n_elems: int, **mix: float) -> None:
        """:meth:`_charge` for data-dependent sizes (see launch-graph capture)."""
        cost = cpu_loop_cost(self.cpu, n_elems, threads=self.threads, **mix)
        self.clock.advance_dynamic(cost.seconds)

    def _charge_rng(self, n_draws: int) -> None:
        """PRNG draws, parallelised only to the configured efficiency."""
        eff_threads = max(
            1, int(round(self.threads * self.rng_parallel_efficiency))
        )
        cost = cpu_loop_cost(
            self.cpu, n_draws, rng_per_elem=1.0, threads=eff_threads
        )
        self.clock.advance(cost.seconds)

    # -- step hooks -------------------------------------------------------------
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        from repro.core.initializers import initialize_swarm

        state = initialize_swarm(
            problem, n_particles, rng, params.init_strategy
        )
        n_elems = n_particles * problem.dim
        self._charge_rng(2 * n_elems)
        self._charge(n_elems, bytes_per_elem=2 * _F32, flops_per_elem=4.0)
        return state

    def _evaluate(self, problem: Problem, state: SwarmState) -> np.ndarray:
        values = problem.evaluator.evaluate(state.positions)
        prof = problem.evaluator.profile()
        self._charge(
            state.n_particles * state.dim,
            flops_per_elem=prof.flops_per_elem + prof.reduction_flops_per_elem,
            bytes_per_elem=_F32,
            transcendental_per_elem=prof.sfu_per_elem,
        )
        return values

    def _update_pbest(self, state: SwarmState, values: np.ndarray) -> None:
        mask = pbest_update(state, values)
        self._charge(state.n_particles, flops_per_elem=1.0, bytes_per_elem=8.0)
        self._charge_pbest_copy(int(np.count_nonzero(mask)), state.dim)

    def _charge_pbest_copy(self, improved: int, dim: int) -> None:
        """Row copies for the improved particles: a dynamic-size charge.

        Always present (0.0 seconds when nothing improved — a bitwise no-op
        on the clock) so a captured launch graph sees a fixed charge-slot
        layout across iterations.
        """
        if improved:
            self._charge_dynamic(improved * dim, bytes_per_elem=2 * _F32)
        else:
            self.clock.advance_dynamic(0.0)

    def _update_gbest(self, state: SwarmState) -> None:
        gbest_scan(state)
        self._charge(state.n_particles, flops_per_elem=1.0, bytes_per_elem=8.0)

    def _update_swarm(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
    ) -> None:
        params = self._scheduled_params(params)
        n, d = state.n_particles, state.dim
        l_mat, g_mat = draw_weights(
            rng,
            n,
            d,
            out=(
                self._ws.array("l_weights", (n, d), np.float32),
                self._ws.array("g_weights", (n, d), np.float32),
            ),
        )
        social = social_positions(state, params.topology)
        vbounds = self._current_velocity_bounds(problem, params)
        velocity_update(
            state.velocities,
            state.positions,
            state.pbest_positions,
            social,
            l_mat,
            g_mat,
            params,
            vbounds,
            out=state.velocities,
            scratch=(
                self._ws.array("vel_pull_1", (n, d), np.float32),
                self._ws.array("vel_pull_2", (n, d), np.float32),
            ),
        )
        position_update(state.positions, state.velocities, problem, params)

        n_elems = state.n_particles * state.dim
        # Inline PRNG: the C++ loop draws l and g on the fly, so the weight
        # matrices never touch memory.
        self._charge_rng(2 * n_elems)
        # Fused update: read V, P, pbest positions; write V, P.
        clamp_flops = 2.0 if params.velocity_clamp is not None else 0.0
        self._charge(
            n_elems,
            flops_per_elem=10.0 + clamp_flops,
            bytes_per_elem=5 * _F32,
        )

    # -- launch-graph replay ----------------------------------------------------
    def _graph_build_replay(self, problem, params, state, rng):
        """One pre-bound steady-state iteration (see :mod:`repro.gpusim.graph`).

        CPU engines have no launcher, so the plan's launch list is empty and
        the graph is pure clock charges.  Every static per-step cost is
        resolved once through the same :func:`cpu_loop_cost` calls the eager
        path makes (same floats, bitwise); the dynamic pbest-copy charge
        stays live because its size is data-dependent.
        """
        n, d = state.n_particles, state.dim
        n_elems = n * d
        clock = self.clock
        prof = problem.evaluator.profile()
        eval_s = cpu_loop_cost(
            self.cpu,
            n_elems,
            threads=self.threads,
            flops_per_elem=prof.flops_per_elem + prof.reduction_flops_per_elem,
            bytes_per_elem=_F32,
            transcendental_per_elem=prof.sfu_per_elem,
        ).seconds
        scan_s = cpu_loop_cost(
            self.cpu, n, threads=self.threads,
            flops_per_elem=1.0, bytes_per_elem=8.0,
        ).seconds
        eff_threads = max(
            1, int(round(self.threads * self.rng_parallel_efficiency))
        )
        rng_s = cpu_loop_cost(
            self.cpu, 2 * n_elems, rng_per_elem=1.0, threads=eff_threads
        ).seconds
        clamp_flops = 2.0 if params.velocity_clamp is not None else 0.0
        update_s = cpu_loop_cost(
            self.cpu,
            n_elems,
            threads=self.threads,
            flops_per_elem=10.0 + clamp_flops,
            bytes_per_elem=5 * _F32,
        ).seconds
        evaluate = problem.evaluator.evaluate

        def replay() -> None:
            with clock.section("eval"):
                values = evaluate(state.positions)
                clock.advance(eval_s)
            with clock.section("pbest"):
                mask = pbest_update(state, values)
                clock.advance(scan_s)
                self._charge_pbest_copy(int(np.count_nonzero(mask)), d)
            with clock.section("gbest"):
                gbest_scan(state)
                clock.advance(scan_s)
            with clock.section("swarm"):
                p = self._scheduled_params(params)
                l_mat, g_mat = draw_weights(
                    rng,
                    n,
                    d,
                    out=(
                        self._ws.array("l_weights", (n, d), np.float32),
                        self._ws.array("g_weights", (n, d), np.float32),
                    ),
                )
                social = social_positions(state, p.topology)
                vbounds = self._current_velocity_bounds(problem, p)
                velocity_update(
                    state.velocities,
                    state.positions,
                    state.pbest_positions,
                    social,
                    l_mat,
                    g_mat,
                    p,
                    vbounds,
                    out=state.velocities,
                    scratch=(
                        self._ws.array("vel_pull_1", (n, d), np.float32),
                        self._ws.array("vel_pull_2", (n, d), np.float32),
                    ),
                )
                position_update(state.positions, state.velocities, problem, p)
                clock.advance(rng_s)
                clock.advance(update_s)

        return replay, []

    def _graph_build_native(self, graph, problem, params, state):
        """This engine's part of the native tier (see
        :func:`repro.gpusim.fastpath.build_native`).

        CPU engines keep the same float32 array numerics as the CUDA port,
        so the very same ``fastpath_step`` applies.  The captured trace is
        pure clock charges, so one iteration's charges are the trace
        replayed, with the live pbest-copy charge in its dynamic slot.
        """
        d = state.dim
        clock = self.clock

        def charge(improved: int) -> None:
            graph.charge(clock, lambda: self._charge_pbest_copy(improved, d))

        return problem.evaluator.evaluate, charge
