"""Chunked asynchronous PSO engine (Section 5.1-style extension)."""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.engines import AsyncFastPSOEngine, FastPSOEngine
from repro.errors import InvalidParameterError


@pytest.fixture
def problem():
    return Problem.from_benchmark("griewank", 24)


@pytest.fixture
def params():
    return PSOParams(seed=9)


class TestConstruction:
    def test_name_encodes_chunks(self):
        assert AsyncFastPSOEngine(n_chunks=8).name == "fastpso-async8"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AsyncFastPSOEngine(n_chunks=0)
        with pytest.raises(InvalidParameterError, match="global"):
            AsyncFastPSOEngine(backend="shared")

    def test_chunk_slices_partition_exactly(self):
        engine = AsyncFastPSOEngine(n_chunks=3)
        slices = list(engine._chunk_slices(10))
        sizes = [s.stop - s.start for s in slices]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert slices[0].start == 0 and slices[-1].stop == 10

    def test_more_chunks_than_particles(self):
        engine = AsyncFastPSOEngine(n_chunks=64)
        slices = list(engine._chunk_slices(5))
        assert len(slices) == 5

    def test_runs_eagerly(self, problem, params):
        """A replayed iteration is the synchronous numerics, which the
        chunked schedule is not: async runs never enter the graph tiers."""
        engine = AsyncFastPSOEngine(n_chunks=4)
        engine.optimize(problem, n_particles=32, max_iter=8, params=params)
        assert engine.graph_info["mode"] == "eager"
        assert (
            engine.graph_info["eager_reason"]
            == "engine-does-not-support-graphs"
        )


class TestSingleChunkDegenerate:
    def test_bitwise_equal_to_synchronous(self, problem, params):
        sync = FastPSOEngine().optimize(
            problem, n_particles=60, max_iter=30, params=params
        )
        async1 = AsyncFastPSOEngine(n_chunks=1).optimize(
            problem, n_particles=60, max_iter=30, params=params
        )
        assert async1.best_value == sync.best_value
        np.testing.assert_array_equal(
            async1.best_position, sync.best_position
        )


class TestAsyncBehaviour:
    def test_different_trajectory_than_sync(self, problem, params):
        sync = FastPSOEngine().optimize(
            problem, n_particles=60, max_iter=30, params=params
        )
        async4 = AsyncFastPSOEngine(n_chunks=4).optimize(
            problem, n_particles=60, max_iter=30, params=params
        )
        assert async4.best_value != sync.best_value

    def test_optimises(self, problem, params):
        r = AsyncFastPSOEngine(n_chunks=4).optimize(
            problem, n_particles=120, max_iter=150, params=params
        )
        assert r.best_value < 50  # random init scores in the hundreds

    def test_gbest_monotone(self, problem, params):
        r = AsyncFastPSOEngine(n_chunks=4).optimize(
            problem,
            n_particles=60,
            max_iter=40,
            params=params,
            record_history=True,
        )
        g = r.history.gbest_values
        assert all(b <= a + 1e-12 for a, b in zip(g, g[1:]))

    def test_pays_extra_launch_overhead(self, problem, params):
        """Same bytes, C times the launches: async costs more per iteration
        at small scale — the reason the paper's design is synchronous."""
        sync = FastPSOEngine().optimize(
            problem, n_particles=60, max_iter=10, params=params
        )
        async8 = AsyncFastPSOEngine(n_chunks=8).optimize(
            problem, n_particles=60, max_iter=10, params=params
        )
        assert async8.iteration_seconds > sync.iteration_seconds

    def test_deterministic(self, problem, params):
        a = AsyncFastPSOEngine(n_chunks=4).optimize(
            problem, n_particles=60, max_iter=20, params=params
        )
        b = AsyncFastPSOEngine(n_chunks=4).optimize(
            problem, n_particles=60, max_iter=20, params=params
        )
        assert a.best_value == b.best_value

    def test_memory_balanced(self, problem, params):
        engine = AsyncFastPSOEngine(n_chunks=4)
        engine.optimize(problem, n_particles=60, max_iter=10, params=params)
        assert engine.ctx.allocator.live_buffers == 0
