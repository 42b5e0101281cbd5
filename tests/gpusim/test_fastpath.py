"""Native iteration tier (:mod:`repro.gpusim.fastpath` / ``_fastpath.c``).

The contract under test: when a run is promoted to the native
one-C-call-per-iteration tier, every observable — trajectory, best value
and position, simulated seconds, per-step breakdown, peak memory — is
bit-identical to the Python replay tier and to eager execution; and every
ineligible or degraded configuration falls back to the Python replay tier
*silently*, with the reason visible on ``engine.graph_info["native"]``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.engines import make_engine
from repro.functions import Sphere
from repro.functions.transforms import Rotated, Shifted, random_rotation
from repro.gpusim import fastpath, native
from repro.gpusim.fastpath import ENV_GATE
from repro.gpusim.graph import IterationRunner
from repro.io import result_to_dict

#: Engines whose default configuration is native-eligible (global-memory
#: float32 storage, global topology) across both engine families.
NATIVE_ENGINES = ["fastpso", "fastpso-fused", "fastpso-seq", "fastpso-omp"]

needs_native = pytest.mark.skipif(
    not fastpath.available(),
    reason="native fast path unavailable (no C compiler or disabled)",
)


@pytest.fixture(autouse=True)
def _clear_env_gate(monkeypatch):
    """Each test controls the gate explicitly; an ambient
    ``REPRO_NO_NATIVE_FASTPATH=1`` (e.g. the CI no-native lane) would
    otherwise shadow every refusal reason with ``disabled-by-env``."""
    monkeypatch.delenv(ENV_GATE, raising=False)


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


def assert_identical(a, b):
    """Exact equality on every simulated observable (no tolerances)."""
    assert a.best_value == b.best_value
    np.testing.assert_array_equal(a.best_position, b.best_position)
    assert a.iterations == b.iterations
    assert a.elapsed_seconds == b.elapsed_seconds
    assert a.setup_seconds == b.setup_seconds
    assert a.step_times == b.step_times
    assert a.peak_device_bytes == b.peak_device_bytes
    assert list(a.history.gbest_values) == list(b.history.gbest_values)


def assert_same_gpu_accounting(native_engine, replay_engine, eager_engine):
    """The native GPU step makes no allocator calls: ``LaunchGraph.charge``
    applies the captured iteration's allocator-counter delta, so Table 4's
    counters match eager exactly.  Its profile matches the Python replay
    tier exactly, since both fold replayed launches with ``add_many``;
    against eager, whose per-launch adds round differently in the last
    bits, every count and every section total matches."""
    stats = native_engine.ctx.allocator.stats
    assert stats == replay_engine.ctx.allocator.stats
    assert stats == eager_engine.ctx.allocator.stats
    report = native_engine.profile_report()
    assert report == replay_engine.profile_report()
    eager_report = eager_engine.profile_report()
    assert report.sections == eager_report.sections
    assert report.kernels.keys() == eager_report.kernels.keys()
    for kernel, summary in report.kernels.items():
        eager_summary = eager_report.kernels[kernel]
        assert summary.launches == eager_summary.launches
        assert summary.total_bytes_read == eager_summary.total_bytes_read
        assert summary.total_bytes_written == eager_summary.total_bytes_written
        assert summary.total_flops == eager_summary.total_flops


def assert_native_parity(name, problem, monkeypatch, **kwargs):
    """*name* goes native and matches the Python replay tier and eager."""
    nat_engine, nat_result = run(name, problem, **kwargs)
    assert nat_engine.graph_info["native"] == "active", name
    monkeypatch.setenv(ENV_GATE, "1")
    _, gated_result = run(name, problem, **kwargs)
    monkeypatch.delenv(ENV_GATE)
    _, eager_result = run(name, problem, graph=False, **kwargs)
    assert_identical(nat_result, gated_result)
    assert_identical(nat_result, eager_result)


@needs_native
class TestNativeTierParity:
    @pytest.mark.parametrize(
        "name, dim, n",
        [pytest.param(name, 10, 64, id=name) for name in NATIVE_ENGINES]
        # The paper's single large swarm (Table 1 shape class).
        + [pytest.param("fastpso", 50, 2000, id="fastpso-sphere50-n2000")],
    )
    def test_native_matches_replay_and_eager(self, name, dim, n, monkeypatch):
        monkeypatch.delenv(ENV_GATE, raising=False)
        problem = Problem.from_benchmark("sphere", dim)
        nat_engine, nat_result = run(name, problem, n=n)
        assert nat_engine.graph_info["mode"] == "graph"
        assert nat_engine.graph_info["native"] == "active"
        assert nat_engine.graph_info["native_replays"] > 0

        monkeypatch.setenv(ENV_GATE, "1")
        gated_engine, gated_result = run(name, problem, n=n)
        assert gated_engine.graph_info["mode"] == "graph"
        assert gated_engine.graph_info["native"] == "disabled-by-env"
        assert gated_engine.graph_info["native_replays"] == 0

        monkeypatch.delenv(ENV_GATE)
        eager_engine, eager_result = run(name, problem, n=n, graph=False)

        assert_identical(nat_result, gated_result)
        assert_identical(nat_result, eager_result)
        if hasattr(nat_engine, "ctx"):
            assert_same_gpu_accounting(nat_engine, gated_engine, eager_engine)

    def test_lifecycle_counters(self, problem):
        engine, _ = run("fastpso", problem, iters=20)
        info = engine.graph_info
        # warmup(0) + capture(1) + validate(2), one verified Python replay,
        # one shadow-verified promotion iteration, 15 native iterations.
        assert info["captured_at"] == 1
        assert info["replays"] == 17
        assert info["native"] == "active"
        assert info["native_replays"] == 15
        assert info["eager_reason"] is None

    def test_odd_tail_shapes(self, monkeypatch):
        """n*d not divisible by 4 exercises the partial final Philox block
        and the SIMD remainder loops, on every native engine."""
        problem = Problem.from_benchmark("sphere", 7)
        for name in NATIVE_ENGINES:
            assert_native_parity(name, problem, monkeypatch, n=13)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"clip_positions": True},
            {"velocity_clamp": None},
            {"velocity_clamp": 0.5, "adaptive_velocity": False},
            {"inertia_schedule": LinearInertia(0.9, 0.4)},
        ],
        ids=["clip-positions", "no-clamp", "static-clamp", "inertia-schedule"],
    )
    def test_parameter_variants(self, problem, overrides, monkeypatch):
        """Clamp, clip and schedule variants, on every native engine."""
        params = replace(PAPER_DEFAULTS, seed=7, **overrides)
        for name in NATIVE_ENGINES:
            assert_native_parity(name, problem, monkeypatch, params=params)

    @pytest.mark.parametrize(
        "name, opts",
        [
            ("fastpso", {"caching": False}),
            ("fastpso-fused", {}),
            ("fastpso-fused", {"caching": False}),
        ],
        ids=["direct-allocator", "fused", "fused-direct-allocator"],
    )
    def test_native_accounting_parity(self, name, opts, problem, monkeypatch):
        """Table 4's allocator counters and the profile stay exact on the
        native tier for the "w/ reallocation" DirectAllocator too, whose
        every alloc/free is a driver call with its own clock charge."""
        nat_engine, nat_result = run(name, problem, **opts)
        assert nat_engine.graph_info["native"] == "active"
        monkeypatch.setenv(ENV_GATE, "1")
        gated_engine, gated_result = run(name, problem, **opts)
        monkeypatch.delenv(ENV_GATE)
        eager_engine, eager_result = run(name, problem, graph=False, **opts)
        assert_identical(nat_result, gated_result)
        assert_identical(nat_result, eager_result)
        assert_same_gpu_accounting(nat_engine, gated_engine, eager_engine)
        stats = nat_engine.ctx.allocator.stats
        if opts.get("caching", True):
            assert stats.pool_hits > 0
        else:
            assert stats.pool_hits == 0 and stats.allocs > 20

    @pytest.mark.parametrize("caching", [True, False], ids=["caching", "direct"])
    def test_steady_state_makes_no_clock_or_allocator_calls(
        self, problem, caching
    ):
        """A native Sphere iteration is one C call, the objective included,
        and one flat ``LaunchGraph.charge``: no ``SimClock.advance`` and no allocator
        ``alloc``/``free`` — yet the counters and the result match."""
        from repro.gpusim.alloc import CachingAllocator, DirectAllocator
        from repro.gpusim.clock import SimClock

        engine = make_engine("fastpso", caching=caching)
        handle = engine.start_run(
            problem,
            n_particles=64,
            max_iter=20,
            params=PSOParams(seed=7),
            record_history=True,
        )
        t = 0
        while handle.runner.phase != "native":
            handle.step(t)
            t += 1
        calls: list[str] = []

        def spy(label, fn):
            def wrapped(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)

            return wrapped

        stats_before = replace(engine.ctx.allocator.stats)
        with pytest.MonkeyPatch.context() as mp:
            for cls, attr in (
                (SimClock, "advance"),
                (CachingAllocator, "alloc"),
                (CachingAllocator, "free"),
                (DirectAllocator, "alloc"),
                (DirectAllocator, "free"),
            ):
                mp.setattr(cls, attr, spy(f"{cls.__name__}.{attr}", getattr(cls, attr)))
            native_iters = 20 - t
            for t in range(t, 20):
                handle.step(t)
        assert native_iters > 10
        assert calls == []
        delta = engine.ctx.allocator.stats.since(stats_before)
        assert delta.allocs == delta.frees == 2 * native_iters
        result = handle.finish()
        ref_engine, reference = run("fastpso", problem, caching=caching)
        assert_identical(result, reference)
        assert engine.ctx.allocator.stats == ref_engine.ctx.allocator.stats

    def test_self_test_known_answer(self):
        lib = fastpath.load()
        assert lib is not None
        # load() already gates on this; assert it directly for a clear
        # failure if the C numerics ever drift from the reference.
        assert fastpath._self_test(lib)


class TestReplayTierAccounting:
    """The Python replay tier is the eager numerics plus one flat
    ``LaunchGraph.charge`` — the same accounting path as the native step."""

    @pytest.mark.parametrize(
        "name, gated",
        [
            ("fastpso-shared", False),
            ("fastpso-tensorcore", False),
            ("fastpso-fp16", False),
            ("fastpso-seq", True),
            ("fastpso", True),
        ],
    )
    def test_steady_state_replay_makes_no_clock_or_allocator_calls(
        self, problem, name, gated, monkeypatch
    ):
        """Steady-state replay iterations make no ``SimClock.advance`` and
        no allocator ``alloc``/``free``; the GPU counters still advance by
        the captured two allocs and two frees per iteration, and the result
        and counters equal a ``graph=False`` run."""
        from repro.gpusim.alloc import CachingAllocator, DirectAllocator
        from repro.gpusim.clock import SimClock

        if gated:
            monkeypatch.setenv(ENV_GATE, "1")
        engine = make_engine(name)
        handle = engine.start_run(
            problem,
            n_particles=64,
            max_iter=20,
            params=PSOParams(seed=7),
            record_history=True,
        )
        t = 0
        while handle.runner.phase != "replay":
            handle.step(t)
            t += 1
        calls: list[str] = []

        def spy(label, fn):
            def wrapped(*args, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)

            return wrapped

        allocator = getattr(getattr(engine, "ctx", None), "allocator", None)
        stats_before = None if allocator is None else replace(allocator.stats)
        with pytest.MonkeyPatch.context() as mp:
            for cls, attr in (
                (SimClock, "advance"),
                (CachingAllocator, "alloc"),
                (CachingAllocator, "free"),
                (DirectAllocator, "alloc"),
                (DirectAllocator, "free"),
            ):
                mp.setattr(cls, attr, spy(f"{cls.__name__}.{attr}", getattr(cls, attr)))
            replay_iters = 20 - t
            for t in range(t, 20):
                handle.step(t)
        assert replay_iters > 10
        assert calls == []
        assert engine.graph_info["native_replays"] == 0
        if allocator is not None:
            delta = allocator.stats.since(stats_before)
            assert delta.allocs == delta.frees == 2 * replay_iters
        result = handle.finish()
        ref_engine, reference = run(name, problem, graph=False)
        assert_identical(result, reference)
        if allocator is not None:
            assert allocator.stats == ref_engine.ctx.allocator.stats


class TestIneligibleConfigurations:
    """Shapes the native tier refuses stay on the Python replay tier with
    the refusal reason recorded — and remain bit-identical to eager."""

    def test_fp16_storage_refused(self, problem):
        engine, result = run("fastpso-fp16", problem)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "native-unsupported-storage-dtype"
        _, eager = run("fastpso-fp16", problem, graph=False)
        assert_identical(result, eager)

    def test_non_global_backend_refused(self, problem):
        engine, result = run("fastpso-shared", problem)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "native-unsupported-backend:shared"
        _, eager = run("fastpso-shared", problem, graph=False)
        assert_identical(result, eager)

    def test_ring_topology_refused(self, problem):
        params = replace(PAPER_DEFAULTS, seed=7, topology="ring")
        engine, result = run("fastpso", problem, params=params)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "native-unsupported-topology:ring"
        _, eager = run("fastpso", problem, params=params, graph=False)
        assert_identical(result, eager)

    def test_eager_runs_never_consider_native(self, problem):
        from repro.reliability.faults import FaultInjector, FaultSpec

        engine = make_engine("fastpso")
        engine.attach_fault_injector(
            FaultInjector([FaultSpec("stall", after=3, stall_seconds=1e-4)])
        )
        engine.optimize(
            problem, n_particles=32, max_iter=10, params=PSOParams(seed=7)
        )
        assert engine.graph_info["mode"] == "eager"
        assert engine.graph_info["eager_reason"] == "fault-injector"
        # The demotion reason is recorded on the native slot too — an
        # eager run can never reach the native tier, and the drill audit
        # trail should say why rather than show a silent None.
        assert engine.graph_info["native"] == "fault-injector"
        assert engine.graph_info["native_replays"] == 0


class TestFallbacks:
    def test_env_gate_disables_without_compiler_dependence(
        self, problem, monkeypatch
    ):
        # The env gate is honored before any build attempt, so this holds
        # on machines with and without a compiler.
        monkeypatch.setenv(ENV_GATE, "1")
        engine, _ = run("fastpso", problem)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "disabled-by-env"
        assert fastpath.load() is None

    def test_no_compiler_falls_back_silently(
        self, problem, monkeypatch, tmp_path
    ):
        # Point the loader at an empty cache dir too: a previously compiled
        # .so loads fine without a compiler (see the warm-cache test below).
        monkeypatch.setattr(native, "compiler_path", lambda: None)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        monkeypatch.setattr(fastpath, "_lib", fastpath._UNSET)
        try:
            engine, result = run("fastpso", problem)
            assert engine.graph_info["mode"] == "graph"
            assert engine.graph_info["native"] == "native-unavailable"
            assert engine.graph_info["replays"] == 17
        finally:
            monkeypatch.undo()  # restores the loaded library too
        _, eager = run("fastpso", problem, graph=False)
        assert_identical(result, eager)

    @pytest.mark.skipif(
        native.compiler_path() is None, reason="no C compiler to warm a cache"
    )
    def test_warm_cache_loads_without_compiler(self, monkeypatch, tmp_path):
        """Only a compile needs a compiler: a cache that already holds the
        build of the current sources and flags is loaded without one."""
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        assert native.build() is not None  # compiles into the empty cache
        monkeypatch.setattr(native, "compiler_path", lambda: None)
        monkeypatch.setattr(fastpath, "_lib", fastpath._UNSET)
        try:
            # load() binds the library only once its self-test passed.
            assert fastpath.load() is not None
        finally:
            monkeypatch.undo()  # restores the loaded library too

    @needs_native
    def test_verify_mismatch_demotes_to_python_replay(
        self, problem, monkeypatch
    ):
        """A failed promotion gate keeps the run on the Python tier with an
        unchanged trajectory — the gate replays the real iteration through
        the trusted path whichever way the verdict goes."""

        def always_mismatch(plan, run_replay, *args, **kwargs):
            run_replay()
            return False

        monkeypatch.setattr(fastpath, "verify_step", always_mismatch)
        engine, result = run("fastpso", problem, iters=20)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "parity-mismatch"
        assert engine.graph_info["native_replays"] == 0
        assert engine.graph_info["replays"] == 17
        monkeypatch.undo()
        _, native_result = run("fastpso", problem, iters=20)
        assert_identical(result, native_result)

    def test_allocator_delta_mismatch_demotes_to_eager(
        self, problem, monkeypatch
    ):
        """A validate iteration whose allocator traffic differs from the
        capture's is not the captured shape: the run stays eager with the
        named reason, bit-identical to a ``graph=False`` run."""
        from repro.gpusim.alloc import AllocatorStats

        since = AllocatorStats.since
        deltas = []

        def drifting(self, before):
            delta = since(self, before)
            deltas.append(delta)
            if len(deltas) == 2:  # the validate iteration's traffic
                delta.pool_hits += 1
            return delta

        monkeypatch.setattr(AllocatorStats, "since", drifting)
        engine, result = run("fastpso", problem)
        assert len(deltas) == 2
        assert engine.graph_info["mode"] == "eager"
        assert engine.graph_info["eager_reason"] == "allocator-delta-changed"
        assert engine.graph_info["native"] == "allocator-delta-changed"
        assert engine.graph_info["replays"] == 0
        monkeypatch.undo()
        eager_engine, eager = run("fastpso", problem, graph=False)
        assert_identical(result, eager)
        assert engine.ctx.allocator.stats == eager_engine.ctx.allocator.stats

    @needs_native
    def test_host_managed_pin_skips_promotion(self, problem, monkeypatch):
        """Hosts that drive the replay closures directly (the fused
        multi-swarm ramp) set ``allow_native = False``; the runner must
        honor the pin and never install the native step."""
        orig = IterationRunner.run_iteration

        def pinned(self, t):
            self.allow_native = False
            return orig(self, t)

        monkeypatch.setattr(IterationRunner, "run_iteration", pinned)
        engine, result = run("fastpso", problem, iters=20)
        assert engine.graph_info["mode"] == "graph"
        assert engine.graph_info["native"] == "host-managed"
        assert engine.graph_info["native_replays"] == 0
        assert engine.graph_info["replays"] == 17
        monkeypatch.undo()
        _, native_result = run("fastpso", problem, iters=20)
        assert_identical(result, native_result)


@needs_native
class TestCheckpointResume:
    def test_restored_run_repromotes_to_native(self, tmp_path):
        """A mid-run restore rebuilds its runner from scratch, so the graph
        re-captures *and* re-promotes — and the continuation is still
        bit-identical to the uninterrupted native run."""
        from repro.reliability import CheckpointManager, read_snapshot

        params = replace(PAPER_DEFAULTS, seed=42)
        problem = Problem.from_benchmark("sphere", 6)
        golden = make_engine("fastpso").optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
        )

        manager = CheckpointManager(tmp_path, every=1, keep=16)
        make_engine("fastpso").optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
            callback=lambda t, state: t + 1 == 6,  # "crash" after iter 6
            checkpoint=manager,
        )
        snap = read_snapshot(manager.latest_path())
        engine = make_engine("fastpso")
        resumed = engine.optimize(
            problem,
            n_particles=32,
            max_iter=16,
            params=params,
            record_history=True,
            restore=snap,
        )
        info = engine.graph_info
        assert info["mode"] == "graph"
        assert info["captured_at"] == snap.iteration + 1
        assert info["native"] == "active"
        assert info["native_replays"] > 0
        assert_identical(resumed, golden)


@pytest.fixture
def plans(monkeypatch):
    """Every :class:`~repro.gpusim.fastpath.NativePlan` built meanwhile."""
    built = []
    init = fastpath.NativePlan.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(fastpath.NativePlan, "__init__", spy)
    return built


def result_json(name, problem, *, n, params, **opts):
    """The engine and its 12-iteration run's serialized result."""
    engine, result = run(name, problem, n=n, iters=12, params=params, **opts)
    return engine, json.dumps(result_to_dict(result), sort_keys=True)


#: The in-step objective's engines: both engine families and the fleet,
#: whose every device builds its own plan.
SPHERE_ENGINES = [
    pytest.param("fastpso", {}, id="fastpso"),
    pytest.param("fastpso-seq", {}, id="fastpso-seq"),
    pytest.param("mgpu", {"n_devices": 2}, id="mgpu2"),
]

#: ``clip_positions`` x ``adaptive_velocity``.
SPHERE_VARIANTS = [
    pytest.param(clip, adaptive, id=f"clip{int(clip)}-adaptive{int(adaptive)}")
    for clip in (False, True)
    for adaptive in (False, True)
]


@needs_native
class TestInStepSphere:
    """A native Sphere iteration scores the swarm inside ``fastpath_step``
    (the plan's sphere flag); every other objective keeps the Python
    evaluator.  Either way the run is byte-identical to ``graph=False``
    and to the gated Python replay tier."""

    @pytest.mark.parametrize("name, opts", SPHERE_ENGINES)
    @pytest.mark.parametrize("clip, adaptive", SPHERE_VARIANTS)
    def test_byte_identical_on_every_tail_shape(
        self, name, opts, clip, adaptive, plans, monkeypatch
    ):
        """n either side of the 4-row (AVX-512) and 2-row (AVX2) groups, d
        either side of the 8-element chunks."""
        params = replace(
            PAPER_DEFAULTS, seed=11, clip_positions=clip, adaptive_velocity=adaptive
        )
        for n in (1, 2, 3, 5, 17, 32):
            if n < opts.get("n_devices", 1):
                continue
            for d in (1, 7, 8, 9, 16, 33, 50):
                problem = Problem.from_benchmark("sphere", d)
                del plans[:]
                engine, native_run = result_json(
                    name, problem, n=n, params=params, **opts
                )
                assert engine.graph_info["native"] == "active", (n, d)
                assert plans and all(plan.sphere for plan in plans), (n, d)
                _, eager_run = result_json(
                    name, problem, n=n, params=params, graph=False, **opts
                )
                monkeypatch.setenv(ENV_GATE, "1")
                _, gated_run = result_json(name, problem, n=n, params=params, **opts)
                monkeypatch.delenv(ENV_GATE)
                assert native_run == eager_run == gated_run, (n, d)

    def test_nan_position_raises_before_any_state_changes(self, problem):
        """A NaN written into the positions between two native steps makes
        the next step raise ``graph=False``'s ``EvaluationError``, with
        pbest, velocities, positions and the Philox cursor untouched."""
        from repro.errors import EvaluationError

        def poisoned_step(**opts):
            engine = make_engine("fastpso", **opts)
            handle = engine.start_run(
                problem, n_particles=17, max_iter=20, params=PSOParams(seed=7)
            )
            for t in range(8):
                handle.step(t)
            handle.state.positions[5, 3] = np.nan
            return handle

        eager = poisoned_step(graph=False)
        with pytest.raises(EvaluationError) as eager_error:
            eager.step(8)

        handle = poisoned_step()
        assert handle.runner.phase == "native"
        state, rng = handle.state, handle.rng
        before = state.copy()
        position = rng.position
        with pytest.raises(EvaluationError) as native_error:
            handle.step(8)
        assert str(native_error.value) == str(eager_error.value)
        assert rng.position == position
        for field in (
            "positions", "velocities", "pbest_values", "pbest_positions"
        ):
            assert getattr(state, field).tobytes() == getattr(before, field).tobytes()
        assert state.gbest_value == before.gbest_value
        assert state.gbest_index == before.gbest_index

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(
                lambda d: Problem.from_benchmark(
                    Shifted(Sphere(), np.linspace(-1.0, 1.0, d)), d
                ),
                id="shifted-sphere",
            ),
            pytest.param(
                lambda d: Problem.from_benchmark(
                    Rotated(Sphere(), random_rotation(d, seed=3)), d
                ),
                id="rotated-sphere",
            ),
            pytest.param(
                lambda d: Problem.from_callable(
                    lambda x: np.sum(np.square(x), axis=1),
                    d,
                    (-5.12, 5.12),
                    vectorized=True,
                ),
                id="callable-sum-of-squares",
            ),
            pytest.param(
                lambda d: Problem.from_benchmark("rastrigin", d),
                id="rastrigin",
            ),
        ],
    )
    def test_other_objectives_keep_the_evaluator(self, make, plans, monkeypatch):
        problem = make(9)
        params = replace(PAPER_DEFAULTS, seed=11)
        engine, native_run = result_json("fastpso", problem, n=17, params=params)
        assert engine.graph_info["native"] == "active"
        assert plans and not any(plan.sphere for plan in plans)
        _, eager_run = result_json(
            "fastpso", problem, n=17, params=params, graph=False
        )
        monkeypatch.setenv(ENV_GATE, "1")
        _, gated_run = result_json("fastpso", problem, n=17, params=params)
        assert native_run == eager_run == gated_run
