"""Host-side memoization: cached results must equal the uncached originals.

The launch/cost pipeline (``occupancy``, ``resource_aware_config``,
``kernel_cost``) is pure in its arguments, so per-process memoization is a
host-only optimization — it must never change a simulated second.  These
tests sweep the cached functions against their ``.uncached`` originals,
check that distinct device specs and cost params get distinct entries,
pin the Launcher's aggregation-first memory behaviour, and check that
fresh engines share interned specs, so a repeated shape is all memo hits.
"""

import numpy as np
import pytest

from repro.gpusim import hostcache
from repro.gpusim.clock import SimClock
from repro.gpusim.costmodel import (
    DEFAULT_GPU_COST_PARAMS,
    GpuCostParams,
    kernel_cost,
)
from repro.gpusim.device import tesla_a100, tesla_v100
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.launch import Launcher, resource_aware_config
from repro.gpusim.occupancy import occupancy
from repro.gpusim.profiler import build_report, build_report_from_stats


@pytest.fixture(autouse=True)
def fresh_caches():
    # These tests exercise the caches themselves, so they run with caching
    # on even in a ``REPRO_NO_HOST_CACHE=1`` session, which gets its switch
    # back afterwards.
    enabled = hostcache.cache_enabled()
    hostcache.set_enabled(True)
    hostcache.clear_all_caches()
    yield
    hostcache.set_enabled(enabled)
    hostcache.clear_all_caches()


SPECS = [
    KernelSpec(name="a"),
    KernelSpec(name="b", flops_per_elem=9.0, bytes_read_per_elem=16.0),
    KernelSpec(
        name="c",
        registers_per_thread=64,
        shared_mem_per_block=16 * 1024,
        dependent_loads_per_elem=2.0,
    ),
]
SIZES = [1, 100, 4096, 1_000_000]


class TestMemoizedEqualsUncached:
    def test_occupancy_sweep(self):
        for device in (tesla_v100(), tesla_a100()):
            for tpb in (32, 128, 256, 1024):
                for regs in (16, 64):
                    cached = occupancy(
                        device, tpb, registers_per_thread=regs
                    )
                    again = occupancy(device, tpb, registers_per_thread=regs)
                    direct = occupancy.uncached(
                        device, tpb, registers_per_thread=regs
                    )
                    assert cached == direct
                    assert again is cached  # served from cache

    def test_resource_aware_config_sweep(self):
        device = tesla_v100()
        for kspec in SPECS:
            for n in SIZES:
                cached = resource_aware_config(device, n, kernel_spec=kspec)
                direct = resource_aware_config.uncached(
                    device, n, kernel_spec=kspec
                )
                assert cached == direct

    def test_kernel_cost_sweep(self):
        device = tesla_v100()
        for kspec in SPECS:
            for n in SIZES:
                cfg = resource_aware_config(device, n, kernel_spec=kspec)
                cached = kernel_cost(device, kspec, cfg, n)
                direct = kernel_cost.uncached(device, kspec, cfg, n)
                assert cached == direct

    def test_distinct_cost_params_not_conflated(self):
        device = tesla_v100()
        kspec = SPECS[1]
        cfg = resource_aware_config(device, 4096, kernel_spec=kspec)
        default = kernel_cost(device, kspec, cfg, 4096)
        slow = GpuCostParams(
            dram_peak_fraction=DEFAULT_GPU_COST_PARAMS.dram_peak_fraction / 4
        )
        tweaked = kernel_cost(device, kspec, cfg, 4096, slow)
        assert tweaked.seconds > default.seconds
        # the original keyed entry is untouched
        assert kernel_cost(device, kspec, cfg, 4096) == default

    def test_distinct_device_specs_not_conflated(self):
        v100, a100 = tesla_v100(), tesla_a100()
        kspec = SPECS[1]
        costs = {}
        for device in (v100, a100):
            cfg = resource_aware_config(device, 1_000_000, kernel_spec=kspec)
            costs[device.name] = kernel_cost(device, kspec, cfg, 1_000_000)
        # the A100's higher bandwidth must show through the cache
        assert costs[a100.name].seconds < costs[v100.name].seconds
        cfg = resource_aware_config(v100, 1_000_000, kernel_spec=kspec)
        assert costs[v100.name] == kernel_cost.uncached(
            v100, kspec, cfg, 1_000_000
        )

    def test_set_enabled_false_bypasses_cache(self):
        device = tesla_v100()
        first = occupancy(device, 256)
        hostcache.set_enabled(False)
        assert not hostcache.cache_enabled()
        bypass = occupancy(device, 256)
        assert bypass == first
        assert bypass is not first  # freshly computed, not the cached object

    def test_invalid_inputs_raise_every_time(self):
        from repro.errors import InvalidLaunchError

        device = tesla_v100()
        for _ in range(2):  # errors must not be cached away
            with pytest.raises(InvalidLaunchError):
                resource_aware_config(device, 0)


class TestHashability:
    def test_kernel_spec_hash_stable_and_eq_consistent(self):
        a = KernelSpec(name="k", flops_per_elem=2.0)
        b = KernelSpec(name="k", flops_per_elem=2.0)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)  # cached hash is deterministic

    def test_launch_config_hash(self):
        assert hash(LaunchConfig(4, 256)) == hash(LaunchConfig(4, 256))
        assert {LaunchConfig(4, 256), LaunchConfig(4, 256)} == {
            LaunchConfig(4, 256)
        }

    def test_device_spec_hashable(self):
        assert hash(tesla_v100()) == hash(tesla_v100())

    def test_cost_params_hashable(self):
        assert hash(GpuCostParams()) == hash(GpuCostParams())


class TestLauncherMemory:
    def _launch_many(self, launcher, n_launches):
        k = KernelSpec(name="k")
        for _ in range(n_launches):
            launcher.launch(k, 1000)

    def test_default_memory_is_per_kernel_not_per_launch(self, v100):
        launcher = Launcher(spec=v100, clock=SimClock())
        self._launch_many(launcher, 500)
        assert launcher.records == []  # opt-in only
        assert len(launcher.stats) == 1  # O(distinct kernels), not O(launches)
        ((_, bucket),) = launcher.stats.items()
        assert bucket.launches == 500

    def test_stats_track_sections(self, v100):
        launcher = Launcher(spec=v100, clock=SimClock())
        k = KernelSpec(name="k")
        with launcher.clock.section("swarm"):
            launcher.launch(k, 100)
        assert ("k", "swarm") in launcher.stats

    def test_record_mode_report_matches_stats_report(self, v100):
        launcher = Launcher(spec=v100, clock=SimClock(), record_launches=True)
        specs = [
            KernelSpec(name="a", flops_per_elem=3.0),
            KernelSpec(name="b", bytes_read_per_elem=8.0),
        ]
        for spec in specs:
            for n in (100, 2048, 100):
                launcher.launch(spec, n)
        from_records = build_report(launcher.records)
        from_stats = build_report_from_stats(launcher.stats)
        assert from_records.kernels == from_stats.kernels
        assert from_records.total_kernel_seconds == pytest.approx(
            from_stats.total_kernel_seconds
        )

    def test_launch_cache_identical_timing(self, v100):
        """Memoized (config, cost) lookups advance the clock identically."""
        times = []
        for _ in range(2):
            launcher = Launcher(spec=v100, clock=SimClock())
            self._launch_many(launcher, 50)
            times.append(launcher.clock.now)
        hostcache.set_enabled(False)
        launcher = Launcher(spec=v100, clock=SimClock())
        self._launch_many(launcher, 50)
        times.append(launcher.clock.now)
        assert times[0] == times[1] == times[2]

    def test_reset_records_clears_stats(self, v100):
        launcher = Launcher(spec=v100, clock=SimClock(), record_launches=True)
        self._launch_many(launcher, 3)
        launcher.reset_records()
        assert launcher.records == [] and launcher.stats == {}


class TestEngineEquivalenceWithCachesOff:
    def test_fastpso_identical_with_and_without_host_caches(self):
        from repro.core.parameters import PSOParams
        from repro.core.problem import Problem
        from repro.engines import FastPSOEngine

        problem = Problem.from_benchmark("rastrigin", 16)
        results = {}
        for enabled in (True, False):
            hostcache.set_enabled(enabled)
            hostcache.clear_all_caches()
            r = FastPSOEngine().optimize(
                problem, n_particles=32, max_iter=8, params=PSOParams(seed=7)
            )
            results[enabled] = r
        hostcache.set_enabled(True)
        assert results[True].best_value == results[False].best_value
        np.testing.assert_array_equal(
            results[True].best_position, results[False].best_position
        )
        assert (
            results[True].elapsed_seconds == results[False].elapsed_seconds
        )


# -- shared specs: one object per configuration, process-wide ----------------

#: Every GPU engine family, as ``(registry name, options)``.
GPU_FAMILIES = {
    "fastpso": ("fastpso", {}),
    "fastpso-shared": ("fastpso", {"backend": "shared"}),
    "fastpso-tc": ("fastpso", {"backend": "tensorcore"}),
    "fastpso-fp16": ("fastpso", {"half_storage": True}),
    "fastpso-fused": ("fastpso", {"fuse_update": True}),
    "gpu-pso": ("gpu-pso", {}),
    "async": ("fastpso-async", {}),
    "mgpu2": ("mgpu", {"n_devices": 2}),
}


def _problem(objective: str):
    from repro.core.problem import Problem

    if objective == "callable":
        # Particle-granularity objective: fastpso prices it with its
        # evaluation_kernel_particle spec.
        return Problem.from_callable(
            lambda x: float(np.sum(x * x)), 6, (-5.0, 5.0)
        )
    return Problem.from_benchmark(objective, 6)


def _run(family: str, objective: str = "rastrigin"):
    """One fresh engine of *family* run to completion; returns
    ``(engine, result)``.  Twelve iterations cross the promotion ramp."""
    from repro.core.parameters import PSOParams
    from repro.engines import make_engine

    name, options = GPU_FAMILIES[family]
    engine = make_engine(name, **options)
    result = engine.optimize(
        _problem(objective), n_particles=24, max_iter=12, params=PSOParams(seed=3)
    )
    return engine, result


def _devices(engine):
    """The single-device engines doing the work (a fleet's workers)."""
    return getattr(engine, "workers", [engine])


def _misses() -> dict:
    return {fn.__name__: fn.cache_info().misses for fn in hostcache._REGISTRY}


class TestSharedSpecs:
    @pytest.mark.parametrize("family", sorted(GPU_FAMILIES))
    def test_fresh_engines_share_device_and_kernel_specs(self, family):
        first, _ = _run(family)
        second, _ = _run(family)
        for a, b in zip(_devices(first), _devices(second)):
            assert a.ctx.spec is b.ctx.spec
            assert a.ctx.launcher.cost_params is b.ctx.launcher.cost_params
            assert a._kernels.keys() == b._kernels.keys()
            for key, spec in a._kernels.items():
                assert spec is b._kernels[key], key
            for (sa, _, _), (sb, _, _) in zip(
                a.ctx.reducer.passes(24), b.ctx.reducer.passes(24)
            ):
                assert sa is sb

    def test_particle_evaluation_kernel_is_shared(self):
        first, _ = _run("fastpso", "callable")
        second, _ = _run("fastpso", "callable")
        assert "evaluate_particle" in first._kernels
        assert (
            first._kernels["evaluate_particle"]
            is second._kernels["evaluate_particle"]
        )

    def test_presets_are_one_instance(self):
        assert tesla_v100() is tesla_v100()
        assert tesla_a100() is tesla_a100()
        variant = tesla_v100().with_overrides(sm_count=40)
        assert variant is not tesla_v100() and variant.sm_count == 40
        assert tesla_v100().sm_count == 80

    def test_intern_is_off_with_the_host_caches(self):
        spec = KernelSpec(name="k")
        assert hostcache.intern(spec) is spec
        assert hostcache.intern(KernelSpec(name="k")) is spec
        hostcache.set_enabled(False)
        fresh = KernelSpec(name="k")
        assert hostcache.intern(fresh) is fresh

    @pytest.mark.parametrize("family", sorted(GPU_FAMILIES))
    def test_repeated_shape_job_adds_no_memo_miss(self, family):
        _run(family)
        before = _misses()
        assert sum(before.values()) > 0
        _run(family)
        assert _misses() == before

    @pytest.mark.parametrize("family", sorted(GPU_FAMILIES))
    @pytest.mark.parametrize("objective", ["sphere", "rastrigin"])
    def test_outputs_identical_with_host_caches_off(self, family, objective):
        import json

        from repro.io import result_to_dict

        def observe():
            engine, result = _run(family, objective)
            return (
                json.dumps(result_to_dict(result), sort_keys=True),
                repr(result.elapsed_seconds),
                [repr(d.profile_report()) for d in _devices(engine)],
                [repr(d.ctx.allocator.stats) for d in _devices(engine)],
            )

        cached = observe()
        warm = observe()
        hostcache.set_enabled(False)
        uncached = observe()
        assert cached == warm == uncached
