"""Shared machinery for the CPU engines (fastpso-seq / fastpso-omp).

Both are the authors' C++ ports of FastPSO: identical algorithm and RNG
stream, compiled with ``-O3``.  The numerics are the shared iteration body
(:func:`repro.gpusim.graph.iteration_body`); what this base class adds is
the *timing*: each step charges the simulated clock with a
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

from repro.core.engine import Engine
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import SwarmState
from repro.gpusim.costmodel import CpuSpec, cpu_loop_cost, xeon_e5_2640v4
from repro.gpusim.graph import LiveCharge
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
    def _cost(self, n_elems: int, **mix: float) -> float:
        return cpu_loop_cost(self.cpu, n_elems, threads=self.threads, **mix).seconds

    def _rng_cost(self, n_draws: int) -> float:
        """PRNG draws, parallelised only to the configured efficiency."""
        eff_threads = max(
            1, int(round(self.threads * self.rng_parallel_efficiency))
        )
        return cpu_loop_cost(
            self.cpu, n_draws, rng_per_elem=1.0, threads=eff_threads
        ).seconds

    # -- step (i) and the cost profile ------------------------------------------
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        from repro.core.initializers import initialize_swarm

        state = initialize_swarm(
            problem, n_particles, rng, params.init_strategy
        )
        n, d = n_particles, problem.dim
        n_elems = n * d
        self.clock.advance(self._rng_cost(2 * n_elems))
        self.clock.advance(
            self._cost(n_elems, bytes_per_elem=2 * _F32, flops_per_elem=4.0)
        )
        prof = problem.evaluator.profile()
        clamp_flops = 2.0 if params.velocity_clamp is not None else 0.0
        compare = self._cost(n, flops_per_elem=1.0, bytes_per_elem=8.0)

        def after(*seconds: float) -> LiveCharge:
            return LiveCharge(self.clock, after=seconds)

        self._live = {
            "evaluate": after(
                self._cost(
                    n_elems,
                    flops_per_elem=prof.flops_per_elem
                    + prof.reduction_flops_per_elem,
                    bytes_per_elem=_F32,
                    transcendental_per_elem=prof.sfu_per_elem,
                )
            ),
            # n compares; the row copies are _charge_pbest_copy.
            "pbest": after(compare),
            # An n-element scan.
            "gbest": after(compare),
            # Inline PRNG: the C++ loop draws l and g on the fly, so the
            # weight matrices never touch memory.  Then the fused update:
            # read V, P, pbest positions; write V, P.
            "swarm": after(
                self._rng_cost(2 * n_elems),
                self._cost(
                    n_elems,
                    flops_per_elem=10.0 + clamp_flops,
                    bytes_per_elem=5 * _F32,
                ),
            ),
        }
        return state

    def _charge_pbest_copy(self, improved: int, dim: int) -> None:
        """Row copies for the improved particles: a dynamic-size charge.

        Always present (0.0 seconds when nothing improved — a bitwise no-op
        on the clock) so a captured launch graph sees a fixed charge-slot
        layout across iterations.
        """
        self.clock.advance_dynamic(
            self._cost(improved * dim, bytes_per_elem=2 * _F32)
            if improved
            else 0.0
        )

    def _graph_build_native(self) -> str | None:
        """CPU engines keep the same float32 array numerics as the CUDA
        port, so the very same ``fastpath_step`` applies (see
        :func:`repro.gpusim.fastpath.build_native`)."""
        return None
