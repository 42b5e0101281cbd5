"""Parallel argmin reduction: exactness vs np.argmin, tie-breaking, costs."""

import numpy as np
import pytest

from repro.core.swarm import SwarmState, gbest_scan
from repro.engines import FastPSOEngine
from repro.gpusim.clock import SimClock
from repro.gpusim.launch import Launcher
from repro.gpusim.reduction import REDUCE_BLOCK_SIZE, ParallelReducer


@pytest.fixture
def reducer(v100):
    return ParallelReducer(Launcher(spec=v100, clock=SimClock()))


def assert_scan_agrees(values, gbest_value=np.inf):
    """:func:`gbest_scan` (the replayed iteration's gbest step) claims
    exactly what the GPU eager gbest step — the two-pass reduction —
    claims, from the same pbest values and running gbest."""

    def state():
        n = values.shape[0]
        return SwarmState(
            positions=np.zeros((n, 2), dtype=np.float32),
            velocities=np.zeros((n, 2), dtype=np.float32),
            pbest_values=np.array(values, dtype=np.float64),
            pbest_positions=np.arange(2 * n, dtype=np.float32).reshape(n, 2),
            gbest_value=gbest_value,
            gbest_position=np.zeros(2, dtype=np.float32),
        )

    eager, scanned = state(), state()
    FastPSOEngine()._update_gbest(eager)
    gbest_scan(scanned)
    assert scanned.gbest_index == eager.gbest_index
    assert scanned.gbest_value == eager.gbest_value
    np.testing.assert_array_equal(scanned.gbest_position, eager.gbest_position)


class TestArgminCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 1000, 5000, 70000])
    def test_matches_numpy(self, reducer, rng_np, n):
        values = rng_np.normal(size=n)
        idx, val = reducer.argmin(values)
        assert idx == int(np.argmin(values))
        assert val == float(values.min())

    def test_ties_resolve_to_lowest_index(self, reducer):
        values = np.array([5.0, 1.0, 3.0, 1.0, 1.0])
        idx, val = reducer.argmin(values)
        assert idx == 1 and val == 1.0

    def test_tie_across_block_boundary(self, reducer):
        values = np.full(2 * REDUCE_BLOCK_SIZE, 2.0)
        values[REDUCE_BLOCK_SIZE - 1] = 1.0
        values[REDUCE_BLOCK_SIZE] = 1.0
        idx, _ = reducer.argmin(values)
        assert idx == REDUCE_BLOCK_SIZE - 1
        assert_scan_agrees(values)

    def test_minimum_in_padded_tail(self, reducer):
        n = REDUCE_BLOCK_SIZE + 3
        values = np.full(n, 10.0)
        values[-1] = -1.0
        idx, val = reducer.argmin(values)
        assert idx == n - 1 and val == -1.0
        assert_scan_agrees(values)

    def test_inf_values_handled(self, reducer):
        values = np.array([np.inf, np.inf, 3.0, np.inf])
        idx, val = reducer.argmin(values)
        assert idx == 2 and val == 3.0
        assert_scan_agrees(values)

    def test_all_inf(self, reducer):
        values = np.full(10, np.inf)
        idx, val = reducer.argmin(values)
        assert idx == 0 and val == np.inf
        assert_scan_agrees(values)

    def test_negative_inf_claims(self, reducer):
        values = np.full(REDUCE_BLOCK_SIZE + 5, 1.0)
        values[REDUCE_BLOCK_SIZE + 1] = -np.inf
        values[REDUCE_BLOCK_SIZE + 3] = -np.inf
        idx, val = reducer.argmin(values)
        assert idx == REDUCE_BLOCK_SIZE + 1 and val == -np.inf
        assert_scan_agrees(values, gbest_value=0.0)
        # An equal running gbest is not improved on (strict <).
        assert_scan_agrees(values, gbest_value=-np.inf)

    def test_empty_rejected(self, reducer):
        with pytest.raises(ValueError, match="non-empty"):
            reducer.argmin(np.empty(0))

    def test_2d_rejected(self, reducer):
        with pytest.raises(ValueError):
            reducer.argmin(np.zeros((3, 3)))


class TestReductionCosts:
    def test_two_launches_for_large_input(self, v100, rng_np):
        launcher = Launcher(spec=v100, clock=SimClock(), record_launches=True)
        reducer = ParallelReducer(launcher)
        reducer.argmin(rng_np.normal(size=10_000))
        names = [r.kernel_name for r in launcher.records]
        assert names == ["reduce_argmin_pass1", "reduce_argmin_pass2"]

    def test_single_element_still_costs_a_kernel(self, v100):
        launcher = Launcher(spec=v100, clock=SimClock(), record_launches=True)
        reducer = ParallelReducer(launcher)
        reducer.argmin(np.array([4.0]))
        assert len(launcher.records) == 1
        assert launcher.clock.now >= v100.kernel_launch_overhead_s

    def test_cost_scales_with_input(self, v100, rng_np):
        def time_for(n):
            launcher = Launcher(spec=v100, clock=SimClock())
            ParallelReducer(launcher).argmin(rng_np.normal(size=n))
            return launcher.clock.now

        assert time_for(5_000_000) > time_for(10_000)
