"""Launch geometry helpers and the Launcher choke point."""

import pytest

from repro.errors import InvalidLaunchError
from repro.gpusim.clock import SimClock
from repro.gpusim.kernel import KernelSpec, LaunchConfig
from repro.gpusim.launch import (
    Launcher,
    resource_aware_config,
    thread_per_item_config,
)


class TestResourceAwareConfig:
    def test_small_problem_gets_exact_threads(self, v100):
        cfg = resource_aware_config(v100, 1000, threads_per_block=256)
        assert cfg.grid_blocks == 4
        assert cfg.workload_per_thread(1000) == 1

    def test_large_problem_capped_at_resident_capacity(self, v100):
        n = 10_000_000
        cfg = resource_aware_config(v100, n)
        assert cfg.total_threads <= v100.max_resident_threads
        # grid-stride covers the rest
        assert cfg.workload_per_thread(n) * cfg.total_threads >= n

    def test_eq3_thread_workload(self, v100):
        """Paper Eq. 3: workload grows once the device saturates."""
        cfg = resource_aware_config(v100, v100.max_resident_threads * 7)
        assert cfg.workload_per_thread(v100.max_resident_threads * 7) == 7

    def test_zero_elements_rejected(self, v100):
        with pytest.raises(InvalidLaunchError):
            resource_aware_config(v100, 0)

    def test_bad_block_size_rejected(self, v100):
        with pytest.raises(InvalidLaunchError):
            resource_aware_config(v100, 100, threads_per_block=4096)


class TestThreadPerItemConfig:
    def test_exact_one_thread_per_item(self, v100):
        cfg = thread_per_item_config(v100, 5000, threads_per_block=128)
        assert cfg.grid_blocks == 40  # ceil(5000/128)
        assert cfg.total_threads >= 5000

    def test_not_capped_by_capacity(self, v100):
        n = 10_000_000
        cfg = thread_per_item_config(v100, n, threads_per_block=256)
        assert cfg.total_threads >= n  # the "thread explosion" behaviour

    def test_zero_items_rejected(self, v100):
        with pytest.raises(InvalidLaunchError):
            thread_per_item_config(v100, 0)


class TestLauncher:
    def _launcher(self, v100):
        # Per-launch records are opt-in since the aggregation-first rework.
        return Launcher(spec=v100, clock=SimClock(), record_launches=True)

    def test_launch_advances_clock(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        launcher.launch(k, 1_000_000)
        assert launcher.clock.now > 0

    def test_launch_records_profile_entry(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        launcher.launch(k, 123)
        assert len(launcher.records) == 1
        rec = launcher.records[0]
        assert rec.kernel_name == "k"
        assert rec.n_elems == 123

    def test_launch_uses_default_resource_aware_config(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        launcher.launch(k, 10_000_000)
        cfg = launcher.records[0].config
        assert cfg.total_threads <= v100.max_resident_threads

    def test_launch_with_explicit_config(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        launcher.launch(k, 100, config=LaunchConfig(2, 64))
        assert launcher.records[0].config.grid_blocks == 2

    def test_launch_validates_shared_mem(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k", shared_mem_per_block=200 * 1024)
        with pytest.raises(InvalidLaunchError):
            launcher.launch(k, 100)

    def test_launch_tags_active_section(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        with launcher.clock.section("swarm"):
            launcher.launch(k, 100)
        assert launcher.records[0].section == "swarm"
        assert launcher.clock.total("swarm") > 0

    def test_reset_records(self, v100):
        launcher = self._launcher(v100)
        k = KernelSpec(name="k")
        launcher.launch(k, 100)
        launcher.reset_records()
        assert launcher.records == []
