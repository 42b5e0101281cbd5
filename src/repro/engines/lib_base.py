"""Shared machinery for the CPU *library* baselines (pyswarms, scikit-opt).

These engines reproduce the two popular open-source PSO libraries the paper
benchmarks: their *algorithmic defaults* (which drive the Table 2 error
separation) and their *interpreted-NumPy cost structure* (which drives the
two-orders-of-magnitude Table 1 gap).

Algorithmic fidelity:

* Neither library clamps velocities by default.  With the paper's
  ``w = 0.9, c1 = c2 = 2`` the swarm dynamics are divergent: velocities grow
  geometrically, the search degrades to the best-of-initial-sampling level,
  and the reported errors are enormous — exactly Table 2's pyswarms/
  scikit-opt rows.  A numerical guard clamps |v| at ``1e12`` only to keep
  float arithmetic finite (real libraries overflow to inf/NaN and stop
  improving, which is behaviourally identical: pbest never updates again).
* Neither has an inertia schedule: the update reads a constant ``w``, so
  ``start_run`` refuses a ``PSOParams.inertia_schedule`` with
  ``InvalidParameterError`` rather than accept it and never apply it.
* Both use float64 NumPy arrays.

Cost structure: every step is a sequence of NumPy ufuncs on ``(n, d)``
float64 arrays, each paying dispatch overhead and materialising temporaries
(:class:`repro.gpusim.costmodel.PythonOverheadModel`), plus the legacy
``np.random`` generator for the per-iteration weight matrices.  Subclasses
declare their op counts and evaluation strategy.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine, EngineRun
from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.swarm import INIT_VELOCITY_FRACTION, SwarmState
from repro.errors import InvalidParameterError
from repro.functions.base import EvalProfile
from repro.gpusim.costmodel import (
    CpuSpec,
    PythonOverheadModel,
    cpu_loop_cost,
    xeon_e5_2640v4,
)
from repro.gpusim.graph import LiveCharge
from repro.gpusim.rng import ParallelRNG

__all__ = ["LibraryEngineBase", "VELOCITY_GUARD"]

_F64 = 8
#: Numerical guard on |v| replacing the libraries' unbounded (overflowing)
#: velocities; large enough never to affect the search behaviour.
VELOCITY_GUARD = 1.0e12
#: Legacy np.random draw cost (Mersenne Twister + boxing), in CPU cycles.
_NP_RANDOM_CYCLES = 22.0


class LibraryEngineBase(Engine):
    """Template for the interpreted-library baselines."""

    #: NumPy ufunc invocations in one swarm update (velocity + position).
    update_ufunc_ops: int = 12
    #: Extra ufunc invocations per iteration for bookkeeping/reporting.
    overhead_ufunc_ops: int = 4
    #: "vectorized" (pyswarms) or "per_particle" (scikit-opt) evaluation.
    eval_strategy: str = "vectorized"
    #: Whether positions are clipped to the search bounds (scikit-opt does).
    clip_positions: bool = False

    def __init__(self, cpu: CpuSpec | None = None) -> None:
        super().__init__()
        self.cpu = cpu or xeon_e5_2640v4()
        self.overhead = PythonOverheadModel()

    def start_run(
        self, problem: Problem, *, params: PSOParams = PAPER_DEFAULTS, **kwargs
    ) -> EngineRun:
        # The libraries' update reads a constant inertia: a schedule would
        # be accepted and never applied.
        if params.inertia_schedule is not None:
            raise InvalidParameterError(
                f"{self.name} has no inertia schedule (the library's update "
                "reads a constant inertia); inertia_schedule is not available"
            )
        return super().start_run(problem, params=params, **kwargs)

    # -- timing helpers ------------------------------------------------------
    def _ufunc_seconds(self, n_ops: int, n_elems: int) -> float:
        """*n_ops* NumPy array operations over *n_elems* float64 elements."""
        traffic = (
            n_ops * n_elems * 2 * _F64 * self.overhead.temp_traffic_factor
        )
        stream = cpu_loop_cost(self.cpu, 1, bytes_per_elem=traffic, threads=1)
        return stream.seconds + self.overhead.ufunc_time(n_ops)

    def _np_random_seconds(self, n_draws: int) -> float:
        cycles = n_draws * _NP_RANDOM_CYCLES
        return cycles / (self.cpu.clock_ghz * 1e9)

    def _eval_seconds(self, n: int, d: int, prof: EvalProfile) -> tuple:
        trans = cpu_loop_cost(
            self.cpu, n * d, transcendental_per_elem=prof.sfu_per_elem, threads=1
        )
        if self.eval_strategy == "vectorized":
            # One fused pass per transcendental-ish term + reduce, as ufuncs.
            n_ops = 3 + int(round(2 * prof.sfu_per_elem))
            return (self._ufunc_seconds(n_ops, n * d), trans.seconds)
        # Per-particle Python loop: one interpreted call plus several
        # small-array NumPy ops per particle.  Transcendental-heavy
        # objectives issue proportionally more small ops, which is why
        # scikit-opt's Griewank run costs ~2x its Sphere run (Table 1).
        per_particle_ufuncs = 2 + int(round(6 * prof.sfu_per_elem))
        return (
            self.overhead.call_time(n),
            n * per_particle_ufuncs * self.overhead.per_small_ufunc,
            trans.seconds,
        )

    # -- numerics -----------------------------------------------------------
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        n, d = n_particles, problem.dim
        lo = problem.lower_bounds
        width = problem.domain_width
        positions = lo + rng.uniform((n, d), 0.0, 1.0, dtype=np.float64) * width
        velocities = (
            INIT_VELOCITY_FRACTION
            * width
            * rng.uniform((n, d), -1.0, 1.0, dtype=np.float64)
        )
        self.clock.advance(self._np_random_seconds(2 * n * d))
        self.clock.advance(self._ufunc_seconds(6, n * d))
        clock = self.clock
        self._live = {
            "evaluate": LiveCharge(
                clock,
                after=self._eval_seconds(n, d, problem.evaluator.profile()),
            ),
            "pbest": LiveCharge(clock, after=(self._ufunc_seconds(4, n),)),
            "gbest": LiveCharge(clock, after=(self._ufunc_seconds(2, n),)),
            "swarm": LiveCharge(
                clock,
                after=(
                    self._np_random_seconds(2 * n * d),
                    self._ufunc_seconds(
                        self.update_ufunc_ops + self.overhead_ufunc_ops, n * d
                    ),
                ),
            ),
        }
        return SwarmState(
            positions=positions,
            velocities=velocities,
            pbest_values=np.full(n, np.inf),
            pbest_positions=positions.copy(),
            gbest_position=np.zeros(d),
        )

    def _swarm_numerics(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
        kernel,
    ) -> None:
        n, d = state.n_particles, state.dim
        l_mat = rng.uniform((n, d), 0.0, 1.0, dtype=np.float64)
        g_mat = rng.uniform((n, d), 0.0, 1.0, dtype=np.float64)

        v = state.velocities
        p = state.positions
        # Library default: NO velocity clamp (the defining difference from
        # the fastpso family); only the numerical guard below.
        v *= params.inertia
        v += params.cognitive * l_mat * (state.pbest_positions - p)
        v += params.social * g_mat * (state.gbest_position - p)
        np.clip(v, -VELOCITY_GUARD, VELOCITY_GUARD, out=v)
        p += v
        if self.clip_positions:
            np.clip(p, problem.lower_bounds, problem.upper_bounds, out=p)
