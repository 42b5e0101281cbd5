"""Chunked asynchronous PSO engine (Section 5.1-style extension)."""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.engines import AsyncFastPSOEngine, FastPSOEngine, make_engine
from repro.errors import InvalidParameterError
from repro.reliability import FaultInjector


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

    def test_fuse_update_refused(self):
        """The schedule launches separate velocity and position kernels per
        chunk; a fused-update request used to be accepted and ignored."""
        with pytest.raises(InvalidParameterError, match="fuse_update"):
            make_engine("fastpso-async", fuse_update=True)

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"caching": False}, "fastpso-async4-nocache"),
            ({"half_storage": True}, "fastpso-async4-fp16"),
            ({"caching": False, "half_storage": True}, "fastpso-async4-nocache-fp16"),
        ],
    )
    def test_name_keeps_option_suffixes(self, options, name):
        assert make_engine("fastpso-async", **options).name == name

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

    def test_pbest_copy_is_a_dynamic_charge(self, problem, params):
        """The pbest-position copy is charged like fastpso's: profiled, but
        never a launch that consumes a fault-injector ordinal, so the
        ordinal of every later launch is independent of how many chunks
        improved."""
        hooked = []

        class Recorder(FaultInjector):
            def on_launch(self, kernel_name):
                hooked.append(kernel_name)
                return super().on_launch(kernel_name)

        engine = AsyncFastPSOEngine(n_chunks=4, record_launches=True)
        engine.attach_fault_injector(Recorder())
        engine.optimize(problem, n_particles=32, max_iter=3, params=params)
        assert "pbest_position_copy" not in hooked
        copies = [
            r
            for r in engine.ctx.launcher.records
            if r.kernel_name == "pbest_position_copy"
        ]
        assert copies and all(r.section == "swarm" for r in copies)
        # init + 3 iterations x (weights + 4 chunks x 6 kernels)
        assert len(hooked) == 1 + 3 * (1 + 4 * 6)

    def test_particle_objective_priced_per_particle(self, params):
        """A thread-per-particle objective is launched as FastPSO launches
        it: evaluation_kernel_particle over each chunk's particles, never
        the element-wise evaluation over n_chunk * d."""
        problem = Problem.from_callable(
            lambda row: float(np.sum(row)), 6, (-1.0, 1.0)
        )
        engine = AsyncFastPSOEngine(n_chunks=4, record_launches=True)
        engine.optimize(problem, n_particles=16, max_iter=2, params=params)
        evals = [
            r
            for r in engine.ctx.launcher.records
            if r.kernel_name.startswith("evaluation_kernel")
        ]
        assert evals and {r.kernel_name for r in evals} == {
            "evaluation_kernel_particle"
        }
        assert {r.n_elems for r in evals} == {4}
