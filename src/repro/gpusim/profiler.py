"""Profiling views over the launcher's kernel log.

Produces the two artefact families the paper derives from ``nvprof``:

* per-kernel and per-section elapsed-time breakdowns (Figure 5), and
* whole-run DRAM throughput / GFLOPs metrics (Table 3).

Throughput metrics follow nvprof's convention: bytes are divided by *kernel
body* time (excluding launch overhead), because ``dram_read_throughput`` is
a per-kernel average over active kernel cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.gpusim.launch import LaunchRecord, LaunchStats
from repro.utils.units import GB

__all__ = [
    "KernelSummary",
    "ProfileReport",
    "build_report",
    "build_report_from_stats",
]


@dataclass(frozen=True)
class KernelSummary:
    """Aggregate statistics for all launches of one kernel."""

    name: str
    launches: int
    total_seconds: float
    total_bytes_read: float
    total_bytes_written: float
    total_flops: float
    mean_occupancy: float

    @property
    def read_throughput_gbs(self) -> float:
        return (
            self.total_bytes_read / self.total_seconds / GB
            if self.total_seconds > 0
            else 0.0
        )

    @property
    def gflops(self) -> float:
        return (
            self.total_flops / self.total_seconds / 1e9
            if self.total_seconds > 0
            else 0.0
        )


@dataclass(frozen=True)
class ProfileReport:
    """Whole-run profiling summary built from a launch log."""

    kernels: Mapping[str, KernelSummary]
    sections: Mapping[str, float]
    total_kernel_seconds: float
    total_bytes_read: float
    total_bytes_written: float
    total_flops: float

    @property
    def dram_read_throughput_gbs(self) -> float:
        """Average DRAM read throughput over active kernel time (Table 3)."""
        if self.total_kernel_seconds <= 0:
            return 0.0
        return self.total_bytes_read / self.total_kernel_seconds / GB

    @property
    def dram_write_throughput_gbs(self) -> float:
        if self.total_kernel_seconds <= 0:
            return 0.0
        return self.total_bytes_written / self.total_kernel_seconds / GB

    @property
    def gflops(self) -> float:
        """Average arithmetic throughput over active kernel time (Table 3)."""
        if self.total_kernel_seconds <= 0:
            return 0.0
        return self.total_flops / self.total_kernel_seconds / 1e9


def _aggregate(rows, sections) -> ProfileReport:
    """Fold ``(kernel, launches, body_seconds, bytes_read, bytes_written,
    flops, occupancy_sum)`` rows into a report, summing in row order."""
    acc: dict[str, list[float]] = {}
    total_body = 0.0
    total_read = 0.0
    total_written = 0.0
    total_flops = 0.0
    for name, launches, body, read, written, flops, occ in rows:
        entry = acc.setdefault(name, [0.0] * 6)
        entry[0] += launches
        entry[1] += body
        entry[2] += read
        entry[3] += written
        entry[4] += flops
        entry[5] += occ
        total_body += body
        total_read += read
        total_written += written
        total_flops += flops

    kernels = {
        name: KernelSummary(
            name=name,
            launches=int(launches),
            total_seconds=body,
            total_bytes_read=read,
            total_bytes_written=written,
            total_flops=flops,
            mean_occupancy=occ / launches if launches else 0.0,
        )
        for name, (launches, body, read, written, flops, occ) in acc.items()
    }
    return ProfileReport(
        kernels=kernels,
        sections=dict(sections or {}),
        total_kernel_seconds=total_body,
        total_bytes_read=total_read,
        total_bytes_written=total_written,
        total_flops=total_flops,
    )


def build_report(
    records: Iterable[LaunchRecord],
    sections: Mapping[str, float] | None = None,
) -> ProfileReport:
    """Aggregate a launch log (and optional clock sections) into a report."""
    return _aggregate(
        (
            (
                rec.kernel_name,
                1,
                rec.cost.seconds - rec.cost.t_launch_overhead,
                rec.cost.bytes_read,
                rec.cost.bytes_written,
                rec.cost.flops,
                rec.cost.occupancy,
            )
            for rec in records
        ),
        sections,
    )


def build_report_from_stats(
    stats: Mapping[tuple[str, str | None], LaunchStats],
    sections: Mapping[str, float] | None = None,
) -> ProfileReport:
    """Aggregate the launcher's always-on accumulators into a report.

    Equivalent to :func:`build_report` over the full launch log whenever
    each kernel runs inside a single section (true for every engine here);
    a kernel spanning sections may differ from the record-order sum in the
    last ulp, which is why the Figure 5 / Table 3 experiment paths opt into
    ``record_launches=True`` and use :func:`build_report` instead.
    """
    return _aggregate(
        (
            (
                b.kernel_name,
                b.launches,
                b.body_seconds,
                b.bytes_read,
                b.bytes_written,
                b.flops,
                b.occupancy_sum,
            )
            for b in stats.values()
        ),
        sections,
    )
