"""Native iteration tier (:mod:`repro.gpusim.fastpath` / ``_fastpath.c``).

The contract under test: when a run is promoted to the native
one-C-call-per-iteration tier, every observable — trajectory, best value
and position, simulated seconds, per-step breakdown, peak memory — is
bit-identical to the Python replay tier and to eager execution; and every
ineligible or degraded configuration falls back to the Python replay tier
*silently*, with the reason visible on ``engine.graph_info["native"]``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.engines import make_engine
from repro.gpusim import fastpath, native
from repro.gpusim.fastpath import ENV_GATE
from repro.gpusim.graph import IterationRunner

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
    """The native GPU step makes the eager iteration's real allocator calls,
    so Table 4's counters match eager exactly.  Its profile matches the
    Python replay tier exactly, since both fold replayed launches with
    ``add_many``; against eager, whose per-launch adds round differently in
    the last bits, every count and every section total matches."""
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
    @pytest.mark.parametrize("name", NATIVE_ENGINES)
    def test_native_matches_replay_and_eager(self, name, problem, monkeypatch):
        monkeypatch.delenv(ENV_GATE, raising=False)
        nat_engine, nat_result = run(name, problem)
        assert nat_engine.graph_info["mode"] == "graph"
        assert nat_engine.graph_info["native"] == "active"
        assert nat_engine.graph_info["native_replays"] > 0

        monkeypatch.setenv(ENV_GATE, "1")
        gated_engine, gated_result = run(name, problem)
        assert gated_engine.graph_info["mode"] == "graph"
        assert gated_engine.graph_info["native"] == "disabled-by-env"
        assert gated_engine.graph_info["native_replays"] == 0

        monkeypatch.delenv(ENV_GATE)
        eager_engine, eager_result = run(name, problem, graph=False)

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

    def test_self_test_known_answer(self):
        lib = fastpath.load()
        assert lib is not None
        # load() already gates on this; assert it directly for a clear
        # failure if the C numerics ever drift from the reference.
        assert fastpath._self_test(lib)


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
        # .so would otherwise load fine without a compiler (by design).
        monkeypatch.setattr(native, "compiler_path", lambda: None)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        fastpath._MODULE.invalidate()
        try:
            engine, result = run("fastpso", problem)
            assert engine.graph_info["mode"] == "graph"
            assert engine.graph_info["native"] == "native-unavailable"
            assert engine.graph_info["replays"] == 17
        finally:
            monkeypatch.undo()
            fastpath._MODULE.invalidate()
        _, eager = run("fastpso", problem, graph=False)
        assert_identical(result, eager)

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
