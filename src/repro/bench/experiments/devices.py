"""Device what-if sweep — the same workload priced across the catalog.

Runs the paper's timing workload (Sphere, paper shapes) on every entry of
the :mod:`repro.devices` catalog and reports, per device: the projected
simulated wall time, the speedup over the catalog V100, the update
kernel's modelled L1/L2 hit fractions, and the run's best value.  Two
properties are on display:

* **Trajectories are device-independent.**  The cost model only prices
  launches; kernel semantics never see the spec, so every device row
  reports the bit-identical best value (asserted here, and by the golden
  suite in ``tests/devices``).
* **Predicted times are not.**  The memory-hierarchy model (cost model
  v2) makes the margin concrete: the paper workload's velocity-update
  working set (~12 MB at d=200, n=5000 fp32) fits entirely in an A100's
  40 MiB L2 but only partially in a V100's 6 MiB, so the A100 row is
  faster by more than its DRAM-bandwidth ratio alone would predict.

``benchmarks/bench_devices.py`` serialises this sweep (plus the
calibration residual report) to ``BENCH_devices.json``, and the CI
device-sweep smoke job asserts the output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.config import BenchScale, scale_from_env
from repro.bench.runner import build_problem, timed_run
from repro.engines import make_engine
from repro.utils.tables import format_table

__all__ = ["DeviceRow", "DevicesResult", "run", "main"]

#: Catalog entries in sweep order (every machine file ships in the sweep).
DEVICES = ("v100", "a100", "h100", "laptop", "cpu-xeon")

#: The engine being priced across devices.
ENGINE = "fastpso"


@dataclass(frozen=True)
class DeviceRow:
    """One catalog device's predicted numbers for the fixed workload."""

    device: str
    elapsed_seconds: float
    speedup_vs_v100: float
    update_microseconds: float
    l1_hit: float
    l2_hit: float
    best_value: float

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "elapsed_seconds": self.elapsed_seconds,
            "speedup_vs_v100": self.speedup_vs_v100,
            "update_microseconds": self.update_microseconds,
            "l1_hit": self.l1_hit,
            "l2_hit": self.l2_hit,
            "best_value": self.best_value,
        }


@dataclass(frozen=True)
class DevicesResult:
    rows: tuple[DeviceRow, ...]
    #: Catalog V100 time over catalog A100 time — the documented
    #: hierarchy-model margin (> DRAM ratio because of the L2 fit).
    v100_over_a100: float
    #: Every device produced the same best value (trajectory invariance).
    trajectories_identical: bool
    scale: str

    def to_text(self) -> str:
        body = [
            [
                r.device,
                r.elapsed_seconds,
                r.speedup_vs_v100,
                r.update_microseconds,
                r.l1_hit,
                r.l2_hit,
                r.best_value,
            ]
            for r in self.rows
        ]
        table = format_table(
            [
                "device",
                "elapsed (s)",
                "vs v100",
                "update (us)",
                "L1 hit",
                "L2 hit",
                "best",
            ],
            body,
            title=(
                f"Device sweep: {ENGINE} on sphere "
                f"[scale={self.scale}]"
            ),
            float_fmt=".4g",
        )
        footer = (
            f"v100/a100 margin={self.v100_over_a100:.2f}x "
            f"trajectories identical={self.trajectories_identical}"
        )
        return f"{table}\n{footer}"

    def to_dict(self) -> dict:
        return {
            "engine": ENGINE,
            "scale": self.scale,
            "v100_over_a100": self.v100_over_a100,
            "trajectories_identical": self.trajectories_identical,
            "rows": [r.to_dict() for r in self.rows],
        }


def _update_kernel_cost(engine, spec, n_elems: int) -> object:
    """Modelled cost of the engine's velocity-update launch on *spec*.

    The velocity update is the hierarchy model's showcase kernel (largest
    re-read working set); its :class:`~repro.gpusim.costmodel.KernelCost`
    carries the L1/L2 hit fractions the sweep reports.  Reads the kernel
    table the run just built, so backend variants price their own spec.
    """
    from repro.gpusim.costmodel import kernel_cost
    from repro.gpusim.launch import resource_aware_config

    kern = engine._kernels["velocity"]
    config = resource_aware_config(spec, n_elems, kernel_spec=kern)
    return kernel_cost(spec, kern, config, n_elems)


def run(scale: BenchScale | None = None) -> DevicesResult:
    scale = scale or scale_from_env()
    from repro.devices import resolve_device

    problem = build_problem("sphere", scale.timing_dim)
    rows: list[DeviceRow] = []
    for name in DEVICES:
        spec = resolve_device(name)
        engine = make_engine(ENGINE, device=spec)
        tr = timed_run(
            engine,
            problem,
            n_particles=scale.timing_particles,
            full_iters=scale.timing_iters,
            sample_iters=scale.sample_iters,
        )
        cost = _update_kernel_cost(
            engine, spec, scale.timing_particles * scale.timing_dim
        )
        rows.append(
            DeviceRow(
                device=name,
                elapsed_seconds=tr.projected_seconds,
                speedup_vs_v100=0.0,  # filled below
                update_microseconds=cost.seconds * 1e6,
                l1_hit=cost.l1_hit_fraction,
                l2_hit=cost.l2_hit_fraction,
                best_value=tr.result.best_value,
            )
        )
    baseline = rows[0].elapsed_seconds
    rows = [
        DeviceRow(
            device=r.device,
            elapsed_seconds=r.elapsed_seconds,
            speedup_vs_v100=(
                baseline / r.elapsed_seconds if r.elapsed_seconds > 0 else 0.0
            ),
            update_microseconds=r.update_microseconds,
            l1_hit=r.l1_hit,
            l2_hit=r.l2_hit,
            best_value=r.best_value,
        )
        for r in rows
    ]
    by_name = {r.device: r for r in rows}
    return DevicesResult(
        rows=tuple(rows),
        v100_over_a100=(
            by_name["v100"].elapsed_seconds / by_name["a100"].elapsed_seconds
        ),
        trajectories_identical=(
            len({r.best_value for r in rows}) == 1
        ),
        scale=scale.name,
    )


def main() -> None:  # pragma: no cover - CLI entry
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
