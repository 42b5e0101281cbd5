"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import SwarmState, gbest_scan, pbest_update, velocity_update
from repro.core.topology import ring_best_indices
from repro.gpusim.alloc import size_class
from repro.gpusim.clock import SimClock
from repro.gpusim.costmodel import kernel_cost
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.launch import Launcher, resource_aware_config
from repro.gpusim.reduction import ParallelReducer
from repro.gpusim.rng import ParallelRNG, philox4x32
from repro.gpusim.device import tesla_v100

_V100 = tesla_v100()


# ---------------------------------------------------------------------------
# Philox / RNG
# ---------------------------------------------------------------------------


@given(
    ctr=hnp.arrays(np.uint32, (5, 4)),
    key=hnp.arrays(np.uint32, (2,)),
)
def test_philox_is_deterministic_bijection_input(ctr, key):
    a = philox4x32(ctr, key)
    b = philox4x32(ctr, key)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint32 and a.shape == ctr.shape


@given(seed=st.integers(0, 2**64 - 1), blocks=st.lists(st.integers(0, 20), max_size=6))
def test_rng_stream_prefix_stability(seed, blocks):
    """Block-aligned chunking never changes the stream.

    The generator consumes whole 4-word Philox blocks, so draws that are
    multiples of 4 compose exactly (the engines always draw whole matrices
    padded to blocks, so this is the contract they rely on).
    """
    counts = [4 * b for b in blocks]
    whole = ParallelRNG(seed).random_uint32(sum(counts))
    rng = ParallelRNG(seed)
    parts = (
        np.concatenate([rng.random_uint32(c) for c in counts])
        if counts
        else np.empty(0, np.uint32)
    )
    np.testing.assert_array_equal(whole, parts)


@given(
    seed=st.integers(0, 2**32),
    lo=st.floats(-100, 100),
    width=st.floats(1e-6, 100),
    n=st.integers(1, 500),
)
def test_uniform_respects_range(seed, lo, width, n):
    u = ParallelRNG(seed).uniform((n,), lo, lo + width, dtype=np.float64)
    assert np.all(u >= lo)
    assert np.all(u < lo + width + 1e-9)


# ---------------------------------------------------------------------------
# Allocator
# ---------------------------------------------------------------------------


@given(n=st.integers(0, 2**30))
def test_size_class_properties(n):
    c = size_class(n)
    assert c >= max(n, 256)
    assert c & (c - 1) == 0  # power of two
    assert c < 2 * max(n, 256)  # never wastes more than 2x


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


@given(
    values=hnp.arrays(
        np.float64,
        st.integers(1, 2000),
        elements=st.floats(allow_nan=False, width=32),
    )
)
@settings(max_examples=40, deadline=None)
def test_parallel_reduction_equals_argmin(values):
    """The GPU gbest step is the reduction's launches plus the gbest_scan
    claim; the claim is the first-index argmin whenever it improves on the
    running +inf gbest."""
    launcher = Launcher(spec=_V100, clock=SimClock())
    ParallelReducer(launcher).argmin(values)
    assert launcher.clock.now > 0
    n = values.shape[0]
    state = SwarmState(
        positions=np.zeros((n, 1), dtype=np.float32),
        velocities=np.zeros((n, 1), dtype=np.float32),
        pbest_values=values.copy(),
        pbest_positions=np.zeros((n, 1), dtype=np.float32),
    )
    idx, val = gbest_scan(state)
    if values.min() < np.inf:
        assert idx == int(np.argmin(values))
        assert val == float(values[idx])
    else:
        assert idx == -1


# ---------------------------------------------------------------------------
# Swarm numerics
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 64),
    d=st.integers(1, 16),
    clamp=st.floats(0.01, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_velocity_clamp_invariant(seed, n, d, clamp):
    """Clamped velocities never exceed the bounds, whatever the inputs."""
    rng = np.random.default_rng(seed)
    params = PSOParams(seed=0)
    v = rng.normal(scale=1e6, size=(n, d)).astype(np.float32)
    p = rng.normal(size=(n, d)).astype(np.float32)
    pb = rng.normal(size=(n, d)).astype(np.float32)
    g = rng.normal(size=d).astype(np.float32)
    l_w = rng.uniform(size=(n, d)).astype(np.float32)
    g_w = rng.uniform(size=(n, d)).astype(np.float32)
    bound = np.full(d, clamp)
    out = velocity_update(v, p, pb, g, l_w, g_w, params, (-bound, bound))
    assert np.all(out <= bound.astype(np.float32) + 1e-6)
    assert np.all(out >= -bound.astype(np.float32) - 1e-6)


@given(
    seed=st.integers(0, 1000),
    n=st.integers(1, 64),
)
@settings(max_examples=40, deadline=None)
def test_pbest_update_invariants(seed, n):
    """pbest never worsens and the mask marks exactly the improvements."""
    rng = np.random.default_rng(seed)
    d = 4
    state = SwarmState(
        positions=rng.normal(size=(n, d)).astype(np.float32),
        velocities=np.zeros((n, d), np.float32),
        pbest_values=rng.normal(size=n),
        pbest_positions=rng.normal(size=(n, d)).astype(np.float32),
    )
    before = state.pbest_values.copy()
    values = rng.normal(size=n)
    mask = pbest_update(state, values)
    assert np.all(state.pbest_values <= before)
    np.testing.assert_array_equal(mask, values < before)
    np.testing.assert_array_equal(
        state.pbest_values, np.minimum(before, values)
    )


@given(
    seed=st.integers(0, 500),
    n=st.integers(3, 100),
    k=st.integers(1, 5),
)
@settings(max_examples=40, deadline=None)
def test_ring_best_is_no_worse_than_self(seed, n, k):
    vals = np.random.default_rng(seed).normal(size=n)
    best = ring_best_indices(vals, k=min(k, (n - 1) // 2))
    assert np.all(vals[best] <= vals)


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@given(
    n=st.integers(1, 10**8),
    flops=st.floats(0.0, 100.0),
    read=st.floats(0.0, 64.0),
    written=st.floats(0.0, 64.0),
)
@settings(max_examples=60, deadline=None)
def test_kernel_cost_always_positive_and_decomposed(n, flops, read, written):
    spec = KernelSpec(
        name="k",
        flops_per_elem=flops,
        bytes_read_per_elem=read,
        bytes_written_per_elem=written,
    )
    cost = kernel_cost(_V100, spec, resource_aware_config(_V100, n), n)
    assert cost.seconds >= _V100.kernel_launch_overhead_s
    body = cost.seconds - cost.t_launch_overhead
    assert body >= max(
        cost.t_memory, cost.t_compute, cost.t_sfu, cost.t_issue, cost.t_latency
    ) - 1e-12
    assert 0.0 <= cost.occupancy <= 1.0


@given(tpb=st.sampled_from([32, 64, 128, 256, 512, 1024]), blocks=st.integers(1, 5000))
@settings(max_examples=60, deadline=None)
def test_launch_config_workload_covers_all_elements(tpb, blocks):
    cfg = LaunchConfig(blocks, tpb)
    n = 1_000_000
    assert cfg.workload_per_thread(n) * cfg.total_threads >= n


# ---------------------------------------------------------------------------
# End-to-end determinism
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_optimizer_is_deterministic_per_seed(seed):
    from repro.engines import FastPSOEngine

    problem = Problem.from_benchmark("rastrigin", 6)
    params = PSOParams(seed=seed)
    a = FastPSOEngine().optimize(problem, n_particles=16, max_iter=8, params=params)
    b = FastPSOEngine().optimize(problem, n_particles=16, max_iter=8, params=params)
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_position, b.best_position)
