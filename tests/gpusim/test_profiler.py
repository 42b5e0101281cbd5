"""Profiler aggregation: kernel summaries and whole-run metrics."""

import pytest

from repro.gpusim.clock import SimClock
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.launch import Launcher
from repro.gpusim.profiler import build_report


@pytest.fixture
def launcher(v100):
    # build_report consumes per-launch records, which are opt-in now.
    return Launcher(spec=v100, clock=SimClock(), record_launches=True)


def _kernel(name, **spec_kwargs):
    return KernelSpec(name=name, **spec_kwargs)


class TestBuildReport:
    def test_empty_log(self):
        report = build_report([])
        assert report.total_kernel_seconds == 0.0
        assert report.dram_read_throughput_gbs == 0.0
        assert report.gflops == 0.0
        assert report.kernels == {}

    def test_aggregates_by_kernel_name(self, launcher):
        k = _kernel("a", bytes_read_per_elem=8.0)
        launcher.launch(k, 1000)
        launcher.launch(k, 2000)
        report = build_report(launcher.records)
        assert report.kernels["a"].launches == 2
        assert report.kernels["a"].total_bytes_read == 8.0 * 3000

    def test_separate_kernels_kept_separate(self, launcher):
        launcher.launch(_kernel("a"), 100)
        launcher.launch(_kernel("b"), 100)
        assert set(build_report(launcher.records).kernels) == {"a", "b"}

    def test_throughput_excludes_launch_overhead(self, launcher, v100):
        k = _kernel("a", bytes_read_per_elem=4.0, bytes_written_per_elem=0.0)
        launcher.launch(k, 1_000_000)
        report = build_report(launcher.records)
        rec = launcher.records[0]
        body = rec.cost.seconds - rec.cost.t_launch_overhead
        assert report.dram_read_throughput_gbs == pytest.approx(
            4e6 / body / 1e9
        )

    def test_totals_sum_over_launches(self, launcher):
        launcher.launch(_kernel("a", flops_per_elem=3.0), 1000)
        launcher.launch(_kernel("b", flops_per_elem=5.0), 1000)
        report = build_report(launcher.records)
        assert report.total_flops == 3000 + 5000

    def test_sections_passed_through(self, launcher):
        report = build_report(launcher.records, {"swarm": 1.5})
        assert report.sections["swarm"] == 1.5

    def test_mean_occupancy(self, launcher, v100):
        k = _kernel("a")
        launcher.launch(k, v100.max_resident_threads)  # full occupancy
        report = build_report(launcher.records)
        assert report.kernels["a"].mean_occupancy == pytest.approx(1.0)

    def test_write_throughput(self, launcher):
        k = _kernel("w", bytes_read_per_elem=0.0, bytes_written_per_elem=8.0)
        launcher.launch(k, 1_000_000)
        report = build_report(launcher.records)
        assert report.dram_write_throughput_gbs > 0
        assert report.dram_read_throughput_gbs == 0.0

    def test_kernel_summary_rates(self, launcher):
        launcher.launch(_kernel("a", flops_per_elem=10.0), 1_000_000)
        summary = build_report(launcher.records).kernels["a"]
        assert summary.gflops > 0
        assert summary.read_throughput_gbs > 0
