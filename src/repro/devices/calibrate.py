"""Cost-model calibration against the paper's published numbers.

The flat v1 roofline was calibrated once by hand from Table 3's achieved
throughputs.  This harness makes that step reproducible and extensible to
new catalog devices: it *fits* :class:`~repro.gpusim.costmodel.GpuCostParams`
to the paper's measured wall times by

1. **capturing** each target engine's launch workload — two short real runs
   with ``record_launches=True`` at different iteration counts, diffed and
   linearly extrapolated to the paper's full iteration budget (per-iteration
   kernel cadence is exact for these engines: costs depend only on shapes);
2. **re-costing** the captured launches analytically under candidate
   parameters (no re-simulation per candidate — pure arithmetic over the
   recorded ``(kernel spec, launch config, n_elems)`` groups);
3. **descending** deterministically: coordinate descent over a fixed,
   log-spaced multiplicative grid, a fixed sweep count, strict-improvement
   acceptance — same inputs, same fitted parameters, bit for bit.

The residual report states, per target, the paper's seconds, the model's
seconds under the fitted parameters and the relative error; the regression
test pins both the fitted values and the maximum residual, so a cost-model
change that silently un-fits the paper's numbers fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.problem import Problem
from repro.errors import CalibrationError
from repro.gpusim.costmodel import DEFAULT_GPU_COST_PARAMS, GpuCostParams, kernel_cost
from repro.gpusim.device import DeviceSpec, tesla_v100

__all__ = [
    "CalibrationTarget",
    "CalibrationResult",
    "CapturedWorkload",
    "PAPER_TARGETS",
    "capture_workload",
    "calibrate",
]


@dataclass(frozen=True)
class CalibrationTarget:
    """One published timing the fitted model must reproduce.

    The defaults describe the paper's headline workload: Sphere, n=5000
    particles, d=200 dimensions, 1000 iterations on the V100 testbed.
    """

    engine: str
    seconds: float  # published wall time for the full run
    n_particles: int = 5000
    dim: int = 200
    iters: int = 1000
    function: str = "sphere"

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise CalibrationError(
                f"target seconds must be positive, got {self.seconds}"
            )
        if self.n_particles < 1 or self.dim < 1 or self.iters < 2:
            raise CalibrationError(
                "target workload needs n_particles>=1, dim>=1, iters>=2"
            )


#: The paper's Table 1 wall times for the two pure-GPU engines on the
#: Sphere n=5000 d=200 workload (seconds).  CPU-hybrid and library rows are
#: excluded: their times are dominated by the CPU-side models, which
#: GpuCostParams does not touch.
PAPER_TARGETS: tuple[CalibrationTarget, ...] = (
    CalibrationTarget(engine="fastpso", seconds=0.67),
    CalibrationTarget(engine="gpu-pso", seconds=4.90),
)

# Parameters the default fit adjusts, in sweep order.
DEFAULT_PARAM_NAMES: tuple[str, ...] = (
    "dram_peak_fraction",
    "latency_hiding_half_occ",
    "fp32_peak_fraction",
    "l2_peak_fraction",
)

# Legal range per fittable parameter (values are clamped to these).
_BOUNDS: dict[str, tuple[float, float]] = {
    "dram_peak_fraction": (0.01, 1.0),
    "latency_hiding_half_occ": (1e-4, 0.5),
    "uncoalesced_penalty": (0.01, 1.0),
    "sfu_throughput_fraction": (0.05, 1.0),
    "instr_overhead_per_elem": (0.0, 64.0),
    "memory_level_parallelism": (1.0, 16.0),
    "fp32_peak_fraction": (0.05, 1.0),
    "l2_peak_fraction": (0.05, 1.0),
}

# Fixed multiplicative probe grid (log-spaced around 1.0) and sweep count:
# the whole search is a deterministic, finite enumeration.
_GRID: tuple[float, ...] = (0.6, 0.75, 0.9, 0.95, 1.05, 1.1, 1.25, 1.6)
_DEFAULT_SWEEPS = 3


@dataclass(frozen=True)
class CapturedWorkload:
    """One target's launch workload, extrapolated over iterations.

    ``groups`` holds ``(kernel_spec, launch_config, n_elems, per_iter,
    fixed)`` tuples: *per_iter* launches per iteration plus *fixed*
    iteration-independent launches (init, RNG seeding, result copy).
    """

    target: CalibrationTarget
    groups: tuple

    def predict_seconds(
        self, device: DeviceSpec, params: GpuCostParams
    ) -> float:
        """Modelled wall time of the full run under *params* on *device*."""
        total = 0.0
        iters = self.target.iters
        for kspec, config, n_elems, per_iter, fixed in self.groups:
            count = fixed + per_iter * iters
            if count <= 0:
                continue
            cost = kernel_cost.uncached(device, kspec, config, n_elems, params)
            total += count * cost.seconds
        return total


def _run_workload(
    target: CalibrationTarget, device: DeviceSpec, iters: int
) -> tuple[dict, dict]:
    """One real run; returns (launch counts by key, kernel spec by name).

    The launch log stores kernel *names*; re-costing needs the kernel
    *specs*, harvested from the engine's kernel table and the context
    reducer's two fixed kernels after the run.
    """
    from repro.engines import make_engine

    engine = make_engine(target.engine, device=device, record_launches=True)
    problem = Problem.from_benchmark(target.function, target.dim)
    engine.optimize(
        problem,
        n_particles=target.n_particles,
        max_iter=iters,
    )
    records = []
    spec_by_name: dict = {}
    contexts = [getattr(engine, "ctx", None)] + [
        getattr(w, "ctx", None) for w in getattr(engine, "workers", ())
    ]
    for ctx in contexts:
        if ctx is None:
            continue
        records.extend(ctx.launcher.records)
        for spec in (ctx.reducer.pass1, ctx.reducer.pass2):
            spec_by_name[spec.name] = spec
    for spec in getattr(engine, "_kernels", {}).values():
        spec_by_name[spec.name] = spec
    if not records:
        raise CalibrationError(
            f"engine {target.engine!r} produced no launch records; only "
            "GPU engines with record_launches support can be calibrated"
        )
    counts: dict = {}
    for rec in records:
        key = (rec.kernel_name, rec.config, rec.n_elems)
        counts[key] = counts.get(key, 0) + 1
    return counts, spec_by_name


def capture_workload(
    target: CalibrationTarget,
    device: DeviceSpec | None = None,
    *,
    sample_iters: tuple[int, int] = (3, 6),
) -> CapturedWorkload:
    """Capture *target*'s launch workload by running it twice.

    Two real runs at ``sample_iters`` iterations are diffed to separate
    per-iteration launches from fixed setup work, then extrapolated to the
    target's full iteration count.  The runs execute genuine NumPy
    semantics, so this is the expensive step — everything downstream is
    arithmetic.
    """
    i1, i2 = sample_iters
    if not 1 <= i1 < i2:
        raise CalibrationError(
            f"need 1 <= sample_iters[0] < sample_iters[1], got {sample_iters}"
        )
    device = device if device is not None else tesla_v100()
    c1, spec_by_name = _run_workload(target, device, i1)
    c2, specs2 = _run_workload(target, device, i2)
    spec_by_name.update(specs2)

    span = i2 - i1
    groups = []
    for key in sorted(
        set(c1) | set(c2),
        key=lambda k: (k[0], k[1].grid_blocks, k[1].threads_per_block, k[2]),
    ):
        name, config, n_elems = key
        kspec = spec_by_name.get(name)
        if kspec is None:
            raise CalibrationError(
                f"kernel {name!r} appears in the launch log but not in the "
                f"engine's kernel table; cannot re-cost it analytically"
            )
        n1 = c1.get(key, 0)
        n2 = c2.get(key, 0)
        per_iter = (n2 - n1) / span
        fixed = n1 - per_iter * i1
        groups.append((kspec, config, n_elems, per_iter, fixed))
    return CapturedWorkload(target=target, groups=tuple(groups))


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus the residual report."""

    params: GpuCostParams
    device_name: str
    #: Per-target rows: engine, paper seconds, predicted seconds, rel error.
    residuals: tuple
    #: Largest absolute relative error across targets.
    max_abs_rel_error: float
    #: Final objective (sum of squared relative errors).
    objective: float
    #: Which parameters the descent adjusted.
    param_names: tuple
    #: Candidate evaluations spent (deterministic for fixed inputs).
    n_evaluations: int

    def to_json_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "device": self.device_name,
            "fitted_params": asdict(self.params),
            "param_names": list(self.param_names),
            "residuals": [dict(r) for r in self.residuals],
            "max_abs_rel_error": self.max_abs_rel_error,
            "objective": self.objective,
            "n_evaluations": self.n_evaluations,
        }

    def report_text(self) -> str:
        lines = [
            f"calibration vs paper tables on {self.device_name}",
            f"  fitted over {', '.join(self.param_names)}",
        ]
        for row in self.residuals:
            lines.append(
                f"  {row['engine']:<10} paper {row['paper_seconds']:7.3f}s  "
                f"model {row['predicted_seconds']:7.3f}s  "
                f"rel err {row['rel_error']:+7.1%}"
            )
        lines.append(
            f"  max |rel err| {self.max_abs_rel_error:.1%}  "
            f"objective {self.objective:.3e}  "
            f"({self.n_evaluations} evaluations)"
        )
        return "\n".join(lines)


def _clamp(name: str, value: float) -> float:
    lo, hi = _BOUNDS[name]
    return min(max(value, lo), hi)


def calibrate(
    targets: tuple[CalibrationTarget, ...] = PAPER_TARGETS,
    *,
    device: DeviceSpec | None = None,
    start: GpuCostParams = DEFAULT_GPU_COST_PARAMS,
    param_names: tuple[str, ...] = DEFAULT_PARAM_NAMES,
    sweeps: int = _DEFAULT_SWEEPS,
    sample_iters: tuple[int, int] = (3, 6),
) -> CalibrationResult:
    """Fit *param_names* so the model reproduces *targets* on *device*.

    Deterministic coordinate descent: for each of ``sweeps`` passes over
    the parameters (in the given order), each parameter probes the fixed
    multiplicative grid, keeping the best strictly-improving value.  The
    objective is the sum of squared relative errors across targets.
    """
    if not targets:
        raise CalibrationError("calibration needs at least one target")
    unknown = [n for n in param_names if n not in _BOUNDS]
    if unknown:
        raise CalibrationError(
            f"cannot fit unknown parameter(s) {unknown}; "
            f"fittable: {sorted(_BOUNDS)}"
        )
    if sweeps < 1:
        raise CalibrationError(f"sweeps must be >= 1, got {sweeps}")
    device = device if device is not None else tesla_v100()

    workloads = [
        capture_workload(t, device, sample_iters=sample_iters) for t in targets
    ]

    n_evals = 0

    def objective(params: GpuCostParams) -> float:
        nonlocal n_evals
        n_evals += 1
        total = 0.0
        for wl in workloads:
            pred = wl.predict_seconds(device, params)
            rel = (pred - wl.target.seconds) / wl.target.seconds
            total += rel * rel
        return total

    params = start
    best = objective(params)
    for _sweep in range(sweeps):
        for name in param_names:
            current = getattr(params, name)
            best_value = current
            for mult in _GRID:
                candidate_value = _clamp(name, current * mult)
                if candidate_value == best_value:
                    continue
                candidate = replace(params, **{name: candidate_value})
                score = objective(candidate)
                # Strict improvement with a deterministic margin: ties keep
                # the incumbent, so the search cannot oscillate.
                if score < best * (1.0 - 1e-12):
                    best = score
                    best_value = candidate_value
            if best_value != current:
                params = replace(params, **{name: best_value})

    residuals = []
    max_abs = 0.0
    for wl in workloads:
        pred = wl.predict_seconds(device, params)
        rel = (pred - wl.target.seconds) / wl.target.seconds
        max_abs = max(max_abs, abs(rel))
        residuals.append(
            {
                "engine": wl.target.engine,
                "paper_seconds": wl.target.seconds,
                "predicted_seconds": pred,
                "rel_error": rel,
            }
        )
    return CalibrationResult(
        params=params,
        device_name=device.name,
        residuals=tuple(residuals),
        max_abs_rel_error=max_abs,
        objective=best,
        param_names=tuple(param_names),
        n_evaluations=n_evals,
    )
