"""Canonical swarm numerics: init, updates, best-keeping."""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import (
    INIT_VELOCITY_FRACTION,
    draw_initial_state,
    draw_weights,
    gbest_scan,
    pbest_update,
    position_update,
    velocity_update,
)
from repro.errors import InvalidParameterError
from repro.gpusim.rng import ParallelRNG


@pytest.fixture
def state(sphere10):
    return draw_initial_state(sphere10, 32, ParallelRNG(5))


class TestDrawInitialState:
    def test_positions_within_domain(self, sphere10):
        state = draw_initial_state(sphere10, 100, ParallelRNG(1))
        assert np.all(state.positions >= sphere10.lower_bounds)
        assert np.all(state.positions <= sphere10.upper_bounds)

    def test_velocities_within_init_fraction(self, sphere10):
        state = draw_initial_state(sphere10, 100, ParallelRNG(1))
        limit = INIT_VELOCITY_FRACTION * sphere10.domain_width
        assert np.all(np.abs(state.velocities) <= limit + 1e-6)

    def test_pbest_starts_at_infinity(self, state):
        assert np.all(np.isinf(state.pbest_values))
        assert state.gbest_value == np.inf

    def test_pbest_positions_copy_not_view(self, state):
        state.positions[0, 0] = 99.0
        assert state.pbest_positions[0, 0] != 99.0

    def test_deterministic_per_seed(self, sphere10):
        a = draw_initial_state(sphere10, 16, ParallelRNG(3))
        b = draw_initial_state(sphere10, 16, ParallelRNG(3))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_dtype_is_float32(self, state):
        assert state.positions.dtype == np.float32
        assert state.velocities.dtype == np.float32
        assert state.pbest_values.dtype == np.float64

    def test_zero_particles_rejected(self, sphere10):
        with pytest.raises(InvalidParameterError):
            draw_initial_state(sphere10, 0, ParallelRNG(1))

    def test_copy_is_deep(self, state):
        clone = state.copy()
        clone.positions[0, 0] = 42.0
        assert state.positions[0, 0] != 42.0


class TestVelocityUpdate:
    def test_matches_equation_one(self, rng_np):
        """Hand-computed Eq. (1) on a single element."""
        params = PSOParams(inertia=0.5, cognitive=1.5, social=0.5, seed=0)
        v = np.array([[2.0]], dtype=np.float32)
        p = np.array([[1.0]], dtype=np.float32)
        pbest = np.array([[3.0]], dtype=np.float32)
        gbest = np.array([5.0], dtype=np.float32)
        l_w = np.array([[0.5]], dtype=np.float32)
        g_w = np.array([[0.25]], dtype=np.float32)
        out = velocity_update(v, p, pbest, gbest, l_w, g_w, params, None)
        # 0.5*2 + 1.5*0.5*(3-1) + 0.5*0.25*(5-1) = 1 + 1.5 + 0.5 = 3
        np.testing.assert_allclose(out, [[3.0]], rtol=1e-6)

    def test_clamping_applies_bounds(self):
        params = PSOParams(seed=0)
        v = np.array([[100.0, -100.0]], dtype=np.float32)
        zeros = np.zeros((1, 2), dtype=np.float32)
        bounds = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        out = velocity_update(
            v, zeros, zeros, np.zeros(2, np.float32), zeros, zeros, params, bounds
        )
        np.testing.assert_allclose(out, [[1.0, -1.0]])

    def test_out_aliasing_velocities_is_safe(self, rng_np):
        params = PSOParams(seed=0)
        v = rng_np.normal(size=(8, 4)).astype(np.float32)
        p = rng_np.normal(size=(8, 4)).astype(np.float32)
        pb = rng_np.normal(size=(8, 4)).astype(np.float32)
        g = rng_np.normal(size=4).astype(np.float32)
        l_w = rng_np.uniform(size=(8, 4)).astype(np.float32)
        g_w = rng_np.uniform(size=(8, 4)).astype(np.float32)
        expected = velocity_update(
            v.copy(), p, pb, g, l_w, g_w, params, None
        )
        out = velocity_update(v, p, pb, g, l_w, g_w, params, None, out=v)
        np.testing.assert_array_equal(out, expected)

    def test_custom_multiply_add_hook(self):
        params = PSOParams(inertia=0.0, cognitive=1.0, social=0.0, seed=0)
        v = np.zeros((1, 2), dtype=np.float32)
        p = np.zeros((1, 2), dtype=np.float32)
        pb = np.ones((1, 2), dtype=np.float32)
        ones = np.ones((1, 2), dtype=np.float32)
        calls = []

        def spy(a, b, out):
            calls.append((a.copy(), b.copy()))
            return np.multiply(a, b, out=out)

        out = velocity_update(
            v, p, pb, np.zeros(2, np.float32), ones, ones, params, None,
            multiply_add=spy,
        )
        assert len(calls) == 2
        np.testing.assert_allclose(out, [[1.0, 1.0]])

    def test_stays_float32(self, state, sphere10):
        params = PSOParams(seed=0)
        l_w, g_w = draw_weights(ParallelRNG(1), 32, 10)
        out = velocity_update(
            state.velocities, state.positions, state.pbest_positions,
            np.zeros(10, np.float32), l_w, g_w, params, None,
        )
        assert out.dtype == np.float32


class TestPositionUpdate:
    def test_adds_velocity(self, sphere10):
        params = PSOParams(seed=0)
        p = np.zeros((2, 10), dtype=np.float32)
        v = np.ones((2, 10), dtype=np.float32)
        position_update(p, v, sphere10, params)
        np.testing.assert_allclose(p, 1.0)

    def test_in_place(self, sphere10):
        params = PSOParams(seed=0)
        p = np.zeros((2, 10), dtype=np.float32)
        ref = p
        position_update(p, np.ones_like(p), sphere10, params)
        assert p is ref

    def test_clip_positions_option(self, sphere10):
        params = PSOParams(seed=0, clip_positions=True)
        p = np.zeros((1, 10), dtype=np.float32)
        v = np.full((1, 10), 100.0, dtype=np.float32)
        position_update(p, v, sphere10, params)
        np.testing.assert_allclose(p, 5.12, rtol=1e-6)

    def test_no_clip_by_default(self, sphere10):
        params = PSOParams(seed=0)
        p = np.zeros((1, 10), dtype=np.float32)
        v = np.full((1, 10), 100.0, dtype=np.float32)
        position_update(p, v, sphere10, params)
        np.testing.assert_allclose(p, 100.0)


class TestBestUpdates:
    def test_pbest_claims_improvements_only(self, state):
        state.pbest_values[:] = 10.0
        values = np.full(32, 20.0)
        values[3] = 5.0
        mask = pbest_update(state, values)
        assert mask.sum() == 1 and mask[3]
        assert state.pbest_values[3] == 5.0
        assert state.pbest_values[0] == 10.0

    def test_pbest_tie_keeps_old(self, state):
        state.pbest_values[:] = 10.0
        old_positions = state.pbest_positions.copy()
        pbest_update(state, np.full(32, 10.0))
        np.testing.assert_array_equal(state.pbest_positions, old_positions)

    def test_pbest_copies_positions(self, state):
        state.pbest_values[:] = 10.0
        values = np.full(32, 20.0)
        values[7] = 1.0
        pbest_update(state, values)
        np.testing.assert_array_equal(
            state.pbest_positions[7], state.positions[7]
        )

    def test_pbest_shape_mismatch(self, state):
        with pytest.raises(InvalidParameterError):
            pbest_update(state, np.zeros(5))

    def test_gbest_scan_finds_minimum(self, state):
        state.pbest_values[:] = np.arange(32, dtype=float)[::-1]
        idx, val = gbest_scan(state)
        assert idx == 31 and val == 0.0
        np.testing.assert_array_equal(
            state.gbest_position, state.pbest_positions[31]
        )

    def test_gbest_never_worsens(self, state):
        state.pbest_values[:] = 5.0
        gbest_scan(state)
        assert state.gbest_value == 5.0
        state.pbest_values[:] = 7.0  # pbest cannot actually worsen; guard
        gbest_scan(state)
        assert state.gbest_value == 5.0

    def test_gbest_position_is_copy(self, state):
        state.pbest_values[:] = np.arange(32, dtype=float)
        gbest_scan(state)
        state.pbest_positions[0, 0] = 123.0
        assert state.gbest_position[0] != 123.0


class TestDrawWeights:
    def test_shapes_and_range(self):
        l_w, g_w = draw_weights(ParallelRNG(1), 10, 4)
        assert l_w.shape == g_w.shape == (10, 4)
        for w in (l_w, g_w):
            assert np.all(w > 0) and np.all(w < 1)

    def test_l_then_g_order_is_stable(self):
        """The draw order is part of the cross-engine contract."""
        rng1 = ParallelRNG(9)
        l1, g1 = draw_weights(rng1, 6, 3)
        rng2 = ParallelRNG(9)
        l2, g2 = draw_weights(rng2, 6, 3)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(g1, g2)
        assert not np.array_equal(l1, g1)
