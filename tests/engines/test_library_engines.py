"""pyswarms-like and scikit-opt-like library baseline models."""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.engines import (
    FastPSOEngine,
    PySwarmsLikeEngine,
    ScikitOptLikeEngine,
)
from repro.engines.lib_base import VELOCITY_GUARD
from repro.errors import InvalidParameterError


@pytest.fixture
def problem():
    return Problem.from_benchmark("sphere", 32)


class TestDivergentDynamics:
    def test_unclamped_velocities_explode_but_stay_finite(
        self, problem, small_params
    ):
        """The guard replaces overflow; values stay finite, search degrades."""
        r = PySwarmsLikeEngine().optimize(
            problem,
            n_particles=64,
            max_iter=300,
            params=small_params,
            record_history=True,
        )
        assert np.isfinite(r.best_value)

    def test_library_error_far_worse_than_fastpso(self, small_params):
        """Table 2's separation at reduced scale."""
        problem = Problem.from_benchmark("sphere", 50)
        lib = PySwarmsLikeEngine().optimize(
            problem, n_particles=200, max_iter=300, params=small_params
        )
        fast = FastPSOEngine().optimize(
            problem, n_particles=200, max_iter=300, params=small_params
        )
        assert lib.error > 20 * fast.error

    def test_scikit_clips_positions(self, problem, small_params):
        engine = ScikitOptLikeEngine()
        assert engine.clip_positions
        r = engine.optimize(
            problem, n_particles=32, max_iter=100, params=small_params
        )
        assert np.isfinite(r.best_value)

    def test_velocity_guard_magnitude(self):
        assert VELOCITY_GUARD >= 1e9  # must never constrain a sane search


class TestCostStructure:
    def test_library_much_slower_than_gpu(self, small_params):
        problem = Problem.from_benchmark("sphere", 100)
        lib = PySwarmsLikeEngine().optimize(
            problem, n_particles=2000, max_iter=3, params=small_params
        )
        fast = FastPSOEngine().optimize(
            problem, n_particles=2000, max_iter=3, params=small_params
        )
        assert lib.iteration_seconds > 50 * fast.iteration_seconds

    def test_scikit_per_particle_eval_scales_with_n(self, small_params):
        problem = Problem.from_benchmark("sphere", 16)
        t = []
        for n in (500, 2000):
            r = ScikitOptLikeEngine().optimize(
                problem, n_particles=n, max_iter=3, params=small_params
            )
            t.append(r.step_times.eval)
        assert t[1] > 3 * t[0]

    def test_scikit_eval_sensitive_to_transcendentals(self, small_params):
        """Griewank ~2x Sphere for scikit-opt (paper Table 1)."""
        t = {}
        for name in ("sphere", "griewank"):
            problem = Problem.from_benchmark(name, 64)
            r = ScikitOptLikeEngine().optimize(
                problem, n_particles=2000, max_iter=3, params=small_params
            )
            t[name] = r.iteration_seconds
        assert 1.2 < t["griewank"] / t["sphere"] < 3.5


class TestScikitEarlyStop:
    def test_disabled_by_default(self, problem, small_params):
        r = ScikitOptLikeEngine().optimize(
            problem, n_particles=16, max_iter=30, params=small_params
        )
        assert r.iterations == 30

    def test_patience_stops_on_plateau(self, small_params):
        """Easom's flat landscape stalls immediately (the paper's anomaly)."""
        problem = Problem.from_benchmark("easom", 50)
        engine = ScikitOptLikeEngine()
        engine.early_stop_patience = 20
        r = engine.optimize(
            problem, n_particles=64, max_iter=500, params=small_params
        )
        assert r.iterations < 100

    def test_patience_respects_user_stop_too(self, problem, small_params):
        from repro.core.stopping import MaxIterations

        engine = ScikitOptLikeEngine()
        engine.early_stop_patience = 10_000
        r = engine.optimize(
            problem,
            n_particles=16,
            max_iter=50,
            params=small_params,
            stop=MaxIterations(5),
        )
        assert r.iterations == 5


class TestInertiaScheduleRefused:
    """The libraries' update reads a constant inertia; a schedule used to be
    accepted and silently ignored."""

    @pytest.mark.parametrize(
        "engine_cls, name",
        [(PySwarmsLikeEngine, "pyswarms"), (ScikitOptLikeEngine, "scikit-opt")],
    )
    def test_start_run_refuses_schedule(self, problem, engine_cls, name):
        params = PSOParams(seed=4, inertia_schedule=LinearInertia(0.9, 0.4))
        with pytest.raises(InvalidParameterError, match=name):
            engine_cls().optimize(
                problem, n_particles=16, max_iter=5, params=params
            )
        with pytest.raises(InvalidParameterError, match="inertia_schedule"):
            engine_cls().start_run(
                problem, n_particles=16, max_iter=5, params=params
            )

    @pytest.mark.parametrize("engine_cls", [PySwarmsLikeEngine, ScikitOptLikeEngine])
    def test_constant_inertia_still_runs(self, problem, engine_cls):
        r = engine_cls().optimize(
            problem, n_particles=16, max_iter=5, params=PSOParams(seed=4)
        )
        assert r.iterations == 5
