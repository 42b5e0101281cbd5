"""Launch-graph capture & replay (:mod:`repro.gpusim.graph`).

The contract under test: with ``graph=True`` (the default) an engine's
results are bit-identical to eager execution — trajectory, best value,
simulated seconds, per-step breakdown, allocator counters and aggregated
profiler totals — while the steady-state iterations actually go through the
replay path; and everything that can change the iteration shape falls back
to eager execution, visibly via ``engine.graph_info``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.core.stopping import StallStop
from repro.engines import make_engine
from repro.gpusim.graph import LaunchGraph
from repro.gpusim.launch import LaunchStats

GRAPH_ENGINES = [
    "fastpso",
    "fastpso-shared",
    "fastpso-tensorcore",
    "fastpso-fused",
    "fastpso-fp16",
    "fastpso-seq",
    "fastpso-omp",
    "fastpso-mgpu",
]

#: Parameter shapes only the Python replay tier runs (the native step
#: refuses the ring topology) or whose per-iteration inputs — clamp width,
#: inertia, clipping — the replay must fetch live rather than bake in.
REPLAY_SHAPES = {
    "ring": {"topology": "ring"},
    "adaptive-clamp": {
        "velocity_clamp": 0.5,
        "adaptive_velocity": True,
        "final_velocity_fraction": 0.1,
    },
    "inertia-schedule": {"inertia_schedule": LinearInertia(0.9, 0.4)},
    "clip-positions": {"clip_positions": True},
}


@pytest.fixture
def problem():
    return Problem.from_benchmark("sphere", 10)


def run(name, problem, *, iters=20, n=64, params=None, **opts):
    engine = make_engine(name, **opts)
    result = engine.optimize(
        problem,
        n_particles=n,
        max_iter=iters,
        params=params if params is not None else PSOParams(seed=7),
        record_history=True,
    )
    return engine, result


def gpu_contexts(engine):
    """The simulated devices of a GPU engine (one per multi-GPU worker);
    empty for the CPU engines."""
    if hasattr(engine, "workers"):
        return [worker.ctx for worker in engine.workers]
    ctx = getattr(engine, "ctx", None)
    return [] if ctx is None else [ctx]


class TestBitIdenticalReplay:
    @pytest.mark.parametrize(
        "name, shape",
        [pytest.param(name, None, id=name) for name in GRAPH_ENGINES]
        + [
            pytest.param(name, shape, id=f"{name}-{shape}")
            for name in GRAPH_ENGINES
            for shape in REPLAY_SHAPES
        ],
    )
    def test_graph_matches_eager(self, name, shape, problem):
        params = None
        if shape is not None:
            params = replace(PAPER_DEFAULTS, seed=7, **REPLAY_SHAPES[shape])
        graph_engine, graph_result = run(name, problem, params=params, graph=True)
        eager_engine, eager_result = run(name, problem, params=params, graph=False)
        assert graph_engine.graph_info["mode"] == "graph"
        assert graph_engine.graph_info["replays"] > 0
        assert eager_engine.graph_info["mode"] == "eager"
        assert eager_engine.graph_info["eager_reason"] == "graph=False"

        assert graph_result.best_value == eager_result.best_value
        np.testing.assert_array_equal(
            graph_result.best_position, eager_result.best_position
        )
        assert graph_result.elapsed_seconds == eager_result.elapsed_seconds
        assert graph_result.setup_seconds == eager_result.setup_seconds
        assert graph_result.step_times == eager_result.step_times
        assert list(graph_result.history.gbest_values) == list(
            eager_result.history.gbest_values
        )
        assert (
            graph_result.peak_device_bytes == eager_result.peak_device_bytes
        )
        # Table 4's allocator counters match exactly; the profile's counts
        # match exactly and its float totals to rounding (replayed launches
        # are folded with ``add_many``, eager ones added one by one).
        graph_ctxs = gpu_contexts(graph_engine)
        eager_ctxs = gpu_contexts(eager_engine)
        assert len(graph_ctxs) == len(eager_ctxs)
        for gctx, ectx in zip(graph_ctxs, eager_ctxs):
            assert gctx.allocator.stats == ectx.allocator.stats
            gstats, estats = gctx.launcher.stats, ectx.launcher.stats
            assert set(gstats) == set(estats)
            for key, expected in estats.items():
                got = gstats[key]
                assert got.launches == expected.launches, key
                assert got.total_elems == expected.total_elems, key
                assert got.seconds == pytest.approx(expected.seconds), key
                assert got.flops == pytest.approx(expected.flops), key

    def test_lifecycle_counters(self, problem):
        engine, _ = run("fastpso", problem, iters=20)
        info = engine.graph_info
        # warmup(0) + capture(1) + validate(2) leaves 17 replayed iterations.
        assert info["captured_at"] == 1
        assert info["replays"] == 17
        assert info["eager_reason"] is None

    def test_profiler_stats_match_eager(self, problem):
        graph_engine, _ = run("fastpso", problem, graph=True)
        eager_engine, _ = run("fastpso", problem, graph=False)
        gstats = graph_engine.ctx.launcher.stats
        estats = eager_engine.ctx.launcher.stats
        assert set(gstats) == set(estats)
        for key, expected in estats.items():
            got = gstats[key]
            assert got.launches == expected.launches, key
            assert got.total_elems == expected.total_elems, key
            assert got.seconds == pytest.approx(expected.seconds), key
            assert got.flops == pytest.approx(expected.flops), key

    def test_allocator_counters_stay_truthful(self, problem):
        engine, _ = run("fastpso", problem, iters=20)
        stats = engine.ctx.allocator.stats
        # Replayed iterations make no alloc/free calls, but their flat
        # charge applies the captured allocator-counter delta: 2 weight
        # buffers per iteration, pool hits from iteration 1 on.
        assert stats.pool_hits >= 2 * 18
        assert stats.allocs == stats.frees


class TestEagerFallbacks:
    def test_stop_criterion_forces_eager(self, problem):
        engine = make_engine("fastpso")
        engine.optimize(
            problem,
            n_particles=32,
            max_iter=10,
            params=PSOParams(seed=7),
            stop=StallStop(patience=50),
        )
        assert engine.graph_info["mode"] == "eager"
        assert engine.graph_info["eager_reason"] == "stop-criterion"

    def test_callback_forces_eager(self, problem):
        engine = make_engine("fastpso")
        engine.optimize(
            problem,
            n_particles=32,
            max_iter=10,
            params=PSOParams(seed=7),
            callback=lambda t, state: False,
        )
        assert engine.graph_info["eager_reason"] == "callback"

    def test_record_launches_forces_eager(self, problem):
        engine, result = run("fastpso", problem, record_launches=True)
        assert engine.graph_info["eager_reason"] == "record-launches"
        # The per-launch log is complete: every iteration's launches are
        # individually recorded, which replay could not provide.
        names = {r.kernel_name for r in engine.ctx.launcher.records}
        assert "evaluation_kernel" in names
        assert "swarm_velocity_update" in names

    def test_fault_injector_forces_eager(self, problem):
        from repro.reliability.faults import FaultInjector, FaultSpec

        engine = make_engine("fastpso")
        engine.attach_fault_injector(
            FaultInjector([FaultSpec("stall", after=3, stall_seconds=1e-4)])
        )
        engine.optimize(
            problem, n_particles=32, max_iter=10, params=PSOParams(seed=7)
        )
        assert engine.graph_info["eager_reason"] == "fault-injector"

    def test_graph_false_respected_via_batch_default(self, problem):
        # The scheduler-style injection path: an explicit option wins.
        engine, _ = run("fastpso", problem, graph=False)
        assert engine.graph_enabled is False
        assert engine.graph_info["mode"] == "eager"

    def test_unsupported_engine_reports_reason(self, problem):
        engine = make_engine("pyswarms")
        engine.optimize(
            problem, n_particles=32, max_iter=5, params=PSOParams(seed=7)
        )
        assert (
            engine.graph_info["eager_reason"]
            == "engine-does-not-support-graphs"
        )


def _cost(seconds=1e-6, overhead=1e-7, **overrides):
    from repro.gpusim.costmodel import KernelCost

    fields = dict(
        seconds=seconds,
        t_memory=0.0,
        t_compute=0.0,
        t_sfu=0.0,
        t_issue=0.0,
        t_latency=0.0,
        t_launch_overhead=overhead,
        bytes_read=8.0,
        bytes_written=4.0,
        flops=16.0,
        occupancy=1.0,
    )
    fields.update(overrides)
    return KernelCost(**fields)


class TestLaunchGraphPrimitives:
    def test_trace_match_wildcards_dynamic_slots(self):
        graph = LaunchGraph(
            trace=[("eval", 1.0, False), ("pbest", 0.5, True)]
        )
        assert graph.trace_matches([("eval", 1.0, False), ("pbest", 9.0, True)])
        assert not graph.trace_matches(
            [("eval", 2.0, False), ("pbest", 0.5, True)]
        )
        assert not graph.trace_matches([("eval", 1.0, False)])
        assert not graph.trace_matches(
            [("eval", 1.0, True), ("pbest", 0.5, True)]
        )

    def test_mismatch_names_allocator_divergence(self):
        from repro.gpusim.alloc import AllocatorStats

        hits = AllocatorStats(allocs=2, frees=2, pool_hits=2)
        graph = LaunchGraph(trace=[("swarm", 1.0, False)], alloc_delta=hits)
        same = LaunchGraph(
            trace=[("swarm", 1.0, False)], alloc_delta=AllocatorStats(2, 2, 2)
        )
        assert graph.mismatch(same) is None
        missed = LaunchGraph(
            trace=[("swarm", 1.0, False)],
            alloc_delta=AllocatorStats(allocs=2, frees=2, pool_misses=2),
        )
        assert graph.mismatch(missed) == "allocator-delta-changed"
        leaked = LaunchGraph(
            trace=[("swarm", 1.0, False)], alloc_delta=hits, alloc_net=(1, 256)
        )
        assert graph.mismatch(leaked) == "allocator-net-change"
        assert leaked.mismatch(leaked) == "allocator-net-change"
        reshaped = LaunchGraph(trace=[("swarm", 2.0, False)], alloc_delta=hits)
        assert graph.mismatch(reshaped) == "iteration-shape-changed"

    def test_charge_replays_clock_and_allocator_counters(self):
        from types import SimpleNamespace

        from repro.gpusim.alloc import AllocatorStats
        from repro.gpusim.clock import SimClock

        stats = AllocatorStats(allocs=5, frees=3, pool_hits=1)
        graph = LaunchGraph(
            trace=[("eval", 0.25, False), ("pbest", 0.0, True), (None, 0.5, False)],
            alloc_delta=AllocatorStats(allocs=2, frees=2, pool_hits=2),
            allocator=SimpleNamespace(stats=stats),
        )
        clock = SimClock(now=1.0)
        graph.charge(clock, lambda: clock.advance(0.125))
        assert clock.now == 1.0 + 0.25 + 0.125 + 0.5
        assert clock.section_totals == {"eval": 0.25, "pbest": 0.125}
        assert clock.current_section is None
        assert stats == AllocatorStats(allocs=7, frees=5, pool_hits=3)

    def test_add_many_equals_repeated_add(self):
        cost = _cost(
            seconds=2.5e-6,
            overhead=5e-7,
            bytes_read=1024.0,
            bytes_written=512.0,
            flops=4096.0,
            occupancy=0.75,
        )
        one = LaunchStats(kernel_name="k", section="eval")
        for _ in range(7):
            one.add(cost, 100)
        many = LaunchStats(kernel_name="k", section="eval")
        many.add_many(cost, 100, 7)
        assert many.launches == one.launches
        assert many.total_elems == one.total_elems
        assert many.seconds == pytest.approx(one.seconds)
        assert many.body_seconds == pytest.approx(one.body_seconds)
        assert many.flops == pytest.approx(one.flops)
        assert many.occupancy_sum == pytest.approx(one.occupancy_sum)

    def test_flush_stats_creates_and_folds_buckets(self):
        from repro.gpusim.kernel import LaunchConfig

        cost = _cost()
        graph = LaunchGraph(
            launches=[("k", "eval", 50, LaunchConfig(1, 256), cost)]
        )
        stats: dict = {}
        graph.flush_stats(stats, replays=5)
        bucket = stats[("k", "eval")]
        assert bucket.launches == 5
        assert bucket.total_elems == 250
        graph.flush_stats(stats, replays=0)  # no-op
        assert bucket.launches == 5
