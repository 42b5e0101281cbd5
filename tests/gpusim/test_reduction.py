"""Parallel argmin reduction: its launches, and the gbest claim it prices.

The reduction is a cost profile; the claim on every engine and tier is
:func:`gbest_scan`.  Each input case checks both: the reducer's launches
(kernel, element count, block count) and what the scan claims.
"""

import numpy as np
import pytest

from repro.core.swarm import SwarmState, gbest_scan
from repro.gpusim.clock import SimClock
from repro.gpusim.launch import Launcher
from repro.gpusim.reduction import REDUCE_BLOCK_SIZE, ParallelReducer


@pytest.fixture
def reducer(v100):
    return ParallelReducer(
        Launcher(spec=v100, clock=SimClock(), record_launches=True)
    )


def claim(reducer, values, gbest_value=np.inf):
    """Reduce *values* as a swarm's pbest values, checking the launches,
    and return what :func:`gbest_scan` claims: ``(index, value)`` of the
    running gbest afterwards."""
    launcher = reducer._launcher
    launcher.reset_records()
    reducer.argmin(values)
    n = values.shape[0]
    n_blocks = -(-n // REDUCE_BLOCK_SIZE)
    if n == 1:
        # A degenerate reduction still costs one (tiny) kernel.
        expected = [("reduce_argmin_pass2", 1, 1)]
    else:
        # Pass 1 reduces each block's slice to one candidate; pass 2
        # reduces the candidates in one block.
        expected = [
            ("reduce_argmin_pass1", n, n_blocks),
            ("reduce_argmin_pass2", n_blocks, 1),
        ]
    launched = [
        (r.kernel_name, r.n_elems, r.config.grid_blocks)
        for r in launcher.records
    ]
    assert launched == expected
    state = SwarmState(
        positions=np.zeros((n, 2), dtype=np.float32),
        velocities=np.zeros((n, 2), dtype=np.float32),
        pbest_values=np.array(values, dtype=np.float64),
        pbest_positions=np.arange(2 * n, dtype=np.float32).reshape(n, 2),
        gbest_value=gbest_value,
        gbest_position=np.zeros(2, dtype=np.float32),
    )
    idx, val = gbest_scan(state)
    if idx >= 0:
        np.testing.assert_array_equal(
            state.gbest_position, state.pbest_positions[idx]
        )
    return idx, val


class TestArgminCorrectness:
    @pytest.mark.parametrize("n", [1, 2, 17, 255, 256, 257, 1000, 5000, 70000])
    def test_matches_numpy(self, reducer, rng_np, n):
        values = rng_np.normal(size=n)
        idx, val = claim(reducer, values)
        assert idx == int(np.argmin(values))
        assert val == float(values.min())

    def test_ties_resolve_to_lowest_index(self, reducer):
        values = np.array([5.0, 1.0, 3.0, 1.0, 1.0])
        idx, val = claim(reducer, values)
        assert idx == 1 and val == 1.0

    def test_tie_across_block_boundary(self, reducer):
        values = np.full(2 * REDUCE_BLOCK_SIZE, 2.0)
        values[REDUCE_BLOCK_SIZE - 1] = 1.0
        values[REDUCE_BLOCK_SIZE] = 1.0
        idx, _ = claim(reducer, values)
        assert idx == REDUCE_BLOCK_SIZE - 1

    def test_minimum_in_padded_tail(self, reducer):
        n = REDUCE_BLOCK_SIZE + 3
        values = np.full(n, 10.0)
        values[-1] = -1.0
        idx, val = claim(reducer, values)
        assert idx == n - 1 and val == -1.0

    def test_inf_values_handled(self, reducer):
        values = np.array([np.inf, np.inf, 3.0, np.inf])
        idx, val = claim(reducer, values)
        assert idx == 2 and val == 3.0

    def test_all_inf(self, reducer):
        # Nothing improves on the running +inf gbest (strict <).
        values = np.full(10, np.inf)
        idx, val = claim(reducer, values)
        assert idx == -1 and val == np.inf

    def test_negative_inf_claims(self, reducer):
        values = np.full(REDUCE_BLOCK_SIZE + 5, 1.0)
        values[REDUCE_BLOCK_SIZE + 1] = -np.inf
        values[REDUCE_BLOCK_SIZE + 3] = -np.inf
        idx, val = claim(reducer, values)
        assert idx == REDUCE_BLOCK_SIZE + 1 and val == -np.inf
        idx, val = claim(reducer, values, gbest_value=0.0)
        assert idx == REDUCE_BLOCK_SIZE + 1 and val == -np.inf
        # An equal running gbest is not improved on (strict <).
        idx, val = claim(reducer, values, gbest_value=-np.inf)
        assert idx == -1 and val == -np.inf

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
