"""Swarm diagnostics: diversity, velocity magnitude, consensus."""

import numpy as np
import pytest

from repro.core.diagnostics import (
    SwarmDiagnostics,
    diagnose,
    mean_velocity_norm,
    pbest_spread,
    position_diversity,
)
from repro.core.parameters import PSOParams
from repro.core.swarm import SwarmState, draw_initial_state
from repro.engines import FastPSOEngine
from repro.errors import InvalidParameterError
from repro.gpusim.rng import ParallelRNG


def _state(positions, velocities=None):
    positions = np.asarray(positions, dtype=np.float32)
    if velocities is None:
        velocities = np.zeros_like(positions)
    return SwarmState(
        positions=positions,
        velocities=np.asarray(velocities, dtype=np.float32),
        pbest_values=np.full(positions.shape[0], np.inf),
        pbest_positions=positions.copy(),
    )


class TestPositionDiversity:
    def test_identical_particles_have_zero_diversity(self):
        state = _state(np.ones((5, 3)))
        assert position_diversity(state) == 0.0

    def test_known_value(self):
        state = _state([[-1.0, 0.0], [1.0, 0.0]])
        assert position_diversity(state) == pytest.approx(1.0)

    def test_scales_with_spread(self):
        tight = _state(np.random.default_rng(0).normal(0, 0.1, (50, 4)))
        wide = _state(np.random.default_rng(0).normal(0, 10.0, (50, 4)))
        assert position_diversity(wide) > 10 * position_diversity(tight)


class TestVelocityNorm:
    def test_zero_velocities(self):
        assert mean_velocity_norm(_state(np.ones((4, 2)))) == 0.0

    def test_known_value(self):
        state = _state(np.zeros((2, 2)), velocities=[[3.0, 4.0], [0.0, 0.0]])
        assert mean_velocity_norm(state) == pytest.approx(2.5)


class TestPbestSpread:
    def test_infinite_before_first_evaluation(self):
        assert pbest_spread(_state(np.zeros((3, 2)))) == np.inf

    def test_zero_at_consensus(self):
        state = _state(np.zeros((3, 2)))
        state.pbest_values[:] = 2.0
        state.gbest_value = 2.0
        assert pbest_spread(state) == 0.0

    def test_positive_with_spread(self):
        state = _state(np.zeros((3, 2)))
        state.pbest_values[:] = [1.0, 2.0, 3.0]
        state.gbest_value = 1.0
        assert pbest_spread(state) == pytest.approx(1.0)


class TestDiagnose:
    def test_snapshot_fields(self, sphere10):
        state = draw_initial_state(sphere10, 32, ParallelRNG(1))
        snap = diagnose(state)
        assert isinstance(snap, SwarmDiagnostics)
        assert snap.position_diversity > 0
        assert snap.mean_velocity_norm > 0

    def test_converged_threshold(self):
        snap = SwarmDiagnostics(0.01, 0.0, 0.0, 1.0)
        assert snap.converged(0.1)
        assert not snap.converged(0.001)
        with pytest.raises(InvalidParameterError):
            snap.converged(0.0)

    def test_diversity_shrinks_over_a_real_run(self, sphere10):
        """The adaptive velocity bound collapses the swarm by the end."""
        engine = FastPSOEngine()
        params = PSOParams(seed=3)
        rng = ParallelRNG(params.seed)
        state = engine._initialize(sphere10, params, 64, rng)
        initial = position_diversity(state)
        engine.optimize(sphere10, n_particles=64, max_iter=1, params=params)
        # Run a full optimization and inspect the final state via a fresh
        # engine that exposes it: step the run manually.
        run = FastPSOEngine().start_run(
            sphere10, n_particles=64, max_iter=200, params=params
        )
        for t in range(200):
            run.step(t)
        assert position_diversity(run.state) < initial
