"""Scalar clips for uniform bounds.

A problem whose bounds are the same in every dimension clips velocities
(Eq. 5) and positions against two float32 scalars instead of ``(d,)``
vectors.  The decision is made once, when the problem is built, and the
scalar clip must give the bytes of the vector clip on every value: at the
bounds, just past them, signed zeros, subnormals, infinities and NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import position_update, velocity_update
from repro.engines import make_engine


def _edge_values(lo: np.float32, hi: np.float32, d: int) -> np.ndarray:
    """A ``(n, d)`` float32 matrix of every edge value around the bounds."""
    values = [
        lo,
        hi,
        np.nextafter(lo, np.float32(-np.inf)),
        np.nextafter(lo, np.float32(np.inf)),
        np.nextafter(hi, np.float32(-np.inf)),
        np.nextafter(hi, np.float32(np.inf)),
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        np.inf,
        -np.inf,
        np.nan,
        3.0 * hi,
        3.0 * lo,
    ]
    flat = np.array(values, dtype=np.float32)
    n = -(-len(flat) * 3 // d)  # every value in several columns
    return np.resize(flat, n * d).reshape(n, d)


def _vectors(problem: Problem) -> Problem:
    """*problem* with its decision forced to the per-dimension vectors."""
    forced = Problem(
        problem.name,
        problem.dim,
        problem.lower_bounds,
        problem.upper_bounds,
        problem.evaluator,
    )
    forced.position_clip = (
        problem.lower_bounds.astype(np.float32),
        problem.upper_bounds.astype(np.float32),
    )
    forced.uniform_width = None
    return forced


class TestDecision:
    def test_registry_problem_clips_against_scalars(self):
        problem = Problem.from_benchmark("rastrigin", 16)
        lo, hi = problem.position_clip
        assert type(lo) is np.float32 and type(hi) is np.float32
        assert lo == np.float32(-5.12) and hi == np.float32(5.12)
        assert problem.uniform_width == 10.24

    def test_per_dimension_bounds_keep_vectors(self):
        problem = Problem.from_callable(
            lambda x: 0.0, 3, (np.array([-1.0, -2.0, -3.0]), np.ones(3))
        )
        lo, hi = problem.position_clip
        assert lo.shape == hi.shape == (3,)
        assert lo.dtype == hi.dtype == np.float32
        assert problem.uniform_width is None

    def test_uniform_width_with_shifted_bounds(self):
        problem = Problem.from_callable(
            lambda x: 0.0, 2, (np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        )
        assert problem.position_clip[0].shape == (2,)
        assert problem.uniform_width == 1.0

    def test_signed_zeros_are_not_one_bound(self):
        problem = Problem.from_callable(
            lambda x: 0.0, 2, (np.array([-0.0, 0.0]), np.ones(2))
        )
        assert problem.position_clip[0].shape == (2,)


class TestVelocityClip:
    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize(
        "name, clamp", [("rastrigin", 1.0), ("levy", 0.3), ("schwefel", 0.07)]
    )
    def test_scalars_are_the_vectors_rounded_once(self, name, clamp, adaptive):
        problem = Problem.from_benchmark(name, 5)
        params = PSOParams(velocity_clamp=clamp, adaptive_velocity=adaptive)
        engine = make_engine("fastpso")
        for progress in np.linspace(0.0, 1.0, 257):
            engine._progress = float(progress)
            lo, hi = engine._velocity_clip(problem, params)
            vlo, vhi = engine._current_velocity_bounds(problem, params)
            assert type(lo) is np.float32 and type(hi) is np.float32
            assert np.full(5, lo).tobytes() == vlo.astype(np.float32).tobytes()
            assert np.full(5, hi).tobytes() == vhi.astype(np.float32).tobytes()

    def test_unclamped_stays_none(self):
        problem = Problem.from_benchmark("rastrigin", 5)
        engine = make_engine("fastpso")
        assert engine._velocity_clip(problem, PSOParams(velocity_clamp=None)) is None

    @pytest.mark.parametrize("d", [1, 7, 16, 33])
    @pytest.mark.parametrize("scratch", [True, False])
    def test_scalar_clip_bytes(self, d, scratch):
        """With w = 1 and pulls of -0, the pre-clip velocity is the input
        itself, so every edge value reaches the clip."""
        problem = Problem.from_benchmark("rastrigin", d)
        params = PSOParams(inertia=1.0, adaptive_velocity=False)
        engine = make_engine("fastpso")
        scalars = engine._velocity_clip(problem, params)
        vectors = engine._current_velocity_bounds(problem, params)
        v = _edge_values(*scalars, d)
        n = v.shape[0]
        pos = np.zeros((n, d), np.float32)
        pulls = np.full((n, d), -0.0, np.float32)
        weights = np.ones((n, d), np.float32)
        got = []
        for bounds in (scalars, vectors):
            buffers = (np.empty_like(v), np.empty_like(v)) if scratch else None
            got.append(
                velocity_update(
                    v.copy(), pos, pulls, pulls, weights, weights, params,
                    bounds, scratch=buffers,
                )
            )
        assert np.isnan(got[0]).sum() == np.isnan(v).sum()
        assert got[0].tobytes() == got[1].tobytes()


class TestPositionClip:
    @pytest.mark.parametrize("d", [1, 7, 16, 33])
    @pytest.mark.parametrize("name", ["rastrigin", "griewank", "levy"])
    def test_scalar_clip_bytes(self, name, d):
        """Adding -0 velocities leaves every edge value for the clip."""
        uniform = Problem.from_benchmark(name, d)
        forced = _vectors(uniform)
        p = _edge_values(*uniform.position_clip, d)
        v = np.full_like(p, -0.0)
        params = PSOParams(clip_positions=True)
        a = position_update(p.copy(), v, uniform, params)
        b = position_update(p.copy(), v, forced, params)
        assert a.tobytes() == b.tobytes()
        reference = np.clip(
            p,
            uniform.lower_bounds.astype(np.float32),
            uniform.upper_bounds.astype(np.float32),
        )
        assert a.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("engine", ["fastpso", "fastpso-seq", "fastpso-async"])
    def test_forced_vectors_give_the_same_run(self, engine):
        """A whole clipped, clamped run gives the same bytes whichever way
        the problem decided."""
        uniform = Problem.from_benchmark("rastrigin", 9)
        params = PSOParams(seed=5, clip_positions=True)
        results = [
            make_engine(engine, graph=False).optimize(
                problem, n_particles=33, max_iter=15, params=params
            )
            for problem in (uniform, _vectors(uniform))
        ]
        a, b = results
        assert a.best_value == b.best_value
        assert a.best_position.tobytes() == b.best_position.tobytes()
        assert a.elapsed_seconds == b.elapsed_seconds
