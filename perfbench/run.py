"""One host-wall benchmark for the solo, batch and serve layers.

Run from the repository root::

    python3 perfbench/run.py --workload serve-burst --seed 3 --seconds 25 --trace 0

``--seed`` picks one of the input sets recorded in ``reference.json``
(seed modulo their number), so every run is checked against digests
recorded on a trusted commit.  With ``--trace 0`` the workload's fixed
work is repeated for ``--seconds`` seconds with no instrumentation but a
once-per-job tier counter, and the end-to-end metrics of
``BENCHMARK.json`` are reported: wall and CPU seconds of the fastest
repetition, the highest throughput, the median set-up time of several
fresh interpreters and the peak RSS.  With ``--trace 1`` untraced and
traced repetitions alternate, and the per-layer metrics are reported as
medians over the traced ones (see ``tracing.py``), together with the
tracing overhead.

Every repetition is checked: job results and event logs must match the
recorded digests, in-run cross-checks must hold, and tier iteration
counts must match the recorded ones.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every check passed.

Everything the run writes (the native compile cache, journals) stays
under ``.bench_build/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = HERE / "reference.json"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Tier iteration counts only a traced repetition observes.
TRACED_TIER_KEYS = ("ramp_iters", "native_iters", "replay_iters", "eager_iters")


def prepare_environment() -> Path:
    """Pin BLAS/OpenMP threads and keep temporary files in the checkout.

    Must run before NumPy or ``repro`` is imported.  Returns the directory
    temporary files go to.
    """
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    # One thread: the workloads are host-sequential by design, and a
    # single BLAS thread keeps them from contending with each other.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    return tmp


def environment() -> dict:
    """What the numbers depend on; loads (and if needed compiles) the C tier."""
    import platform

    import numpy

    from repro.gpusim import fastpath, native

    cache = native.cache_dir()
    before = set(cache.glob("fastpath-*.so"))
    available = fastpath.available()
    compiled = bool(set(cache.glob("fastpath-*.so")) - before)
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_so": "compiled" if compiled else "cached",
        "fastpath_available": available,
    }


def declared_metrics() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@dataclass
class Reference:
    """What a repetition of one workload must reproduce."""

    #: The input seed the workload is built from.
    seed: int
    digests: dict
    tiers: dict


def load_reference(workload: str, seed: int) -> Reference:
    """The recorded outputs of the input set *seed* selects."""
    entry = json.loads(REFERENCE.read_text())["workloads"][workload]
    recorded = entry["digests"]
    input_seed = seed % len(recorded)
    return Reference(input_seed, recorded[str(input_seed)], entry["tiers"])


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from a fresh interpreter to a warmed-up workload."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Sample:
    """One timed repetition: its outcome and what it cost the host."""

    result: object
    wall_s: float
    cpu_s: float
    #: Native-tier iterations of the jobs the repetition finished.
    native_replays: int
    layers: dict | None = None


def timed_rep(workload, traced: bool) -> Sample:
    """Run one repetition, untraced or under a fresh tracer."""
    from tracing import Tracer, instrument, layer_metrics, native_replays

    gc.collect()
    tracer = Tracer() if traced else None
    with native_replays() as native, (
        instrument(tracer) if traced else contextlib.nullcontext()
    ):
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = workload.rep()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    layers = None
    if traced:
        journal_bytes = sum(p.stat().st_size for p in tracer.journal_paths)
        layers = layer_metrics(tracer, wall, journal_bytes)
    workload.cleanup()
    return Sample(result, wall, cpu, native[0], layers)


def observed_tiers(sample: Sample) -> dict[str, int]:
    tiers = {"native_replays": sample.native_replays}
    if sample.layers is not None:
        for key in TRACED_TIER_KEYS:
            tiers[key] = sample.layers[f"core.engine.{key}"]
    return tiers


def check(samples: list[Sample], reference: Reference) -> tuple[int, list]:
    """Failed-job count and problem list over every repetition."""
    failed, problems = 0, []
    for i, sample in enumerate(samples):
        result = sample.result
        bad = list(result.problems)
        if result.digests != reference.digests:
            bad.append(f"output digests {result.digests} != {reference.digests}")
        for key, value in observed_tiers(sample).items():
            if reference.tiers.get(key) != value:
                bad.append(f"{key}={value}, recorded {reference.tiers.get(key)}")
        failed += result.failed
        if bad:
            # A repetition that fails a check fails all of its jobs.
            failed += result.attempted - result.failed
            problems.extend(f"repetition {i}: {p}" for p in bad)
    return failed, problems


def end_to_end_values(plain: list[Sample]) -> dict:
    """Wall, throughput and CPU of the fastest untraced repetition.

    Other tenants of a shared host only ever add time, in bursts lasting
    seconds, so the minimum over many repetitions is far steadier from run
    to run than their median.
    """
    return {
        "wall_s": min(s.wall_s for s in plain),
        "particle_iters_per_s": max(
            s.result.particle_iters / s.wall_s for s in plain
        ),
        "cpu_s": min(s.cpu_s for s in plain),
    }


def layer_values(plain: list[Sample], traced: list[Sample], names) -> dict:
    """Per-layer medians over the traced repetitions, plus the overhead of
    tracing against the untraced repetitions interleaved with them."""
    values = {}
    for name in names:
        if name == "tracing.overhead_frac":
            continue
        column = [s.layers[name] for s in traced]
        exact = all(isinstance(v, int) for v in column)
        values[name] = (statistics.median_low if exact else statistics.median)(
            column
        )
    values["tracing.overhead_frac"] = (
        statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in plain)
        - 1.0
    )
    return values


def run(args) -> int:
    scratch_root = prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = load_reference(args.workload, args.seed)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        workload = WORKLOADS[args.workload](reference.seed, scratch)
        if args.setup_probe:
            workload.setup()
            return 0
        return measure(workload, reference, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, reference: Reference, args) -> int:
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    if not env["fastpath_available"]:
        print("the native tier is unavailable; refusing to measure", file=sys.stderr)
        return 1
    end_to_end, per_layer = declared_metrics()
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)
    workload.setup()
    # One checked but untimed repetition: the first one in a process runs
    # while interpreter and library caches are still filling.
    warm = timed_rep(workload, traced=False)

    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        plain.append(timed_rep(workload, traced=False))
        if args.trace:
            traced.append(timed_rep(workload, traced=True))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = [warm] + plain + traced
    failed, problems = check(samples, reference)
    attempted = sum(s.result.attempted for s in samples)

    if args.trace:
        values, units = layer_values(plain, traced, per_layer), per_layer
    else:
        values = {**end_to_end_values(plain), "setup_s": setup_s}
        values["peak_rss_mb"] = peak_rss_mb
        units = end_to_end
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} != declared {sorted(units)}")

    print(
        f"{workload.name} seed={args.seed} (input set {reference.seed}): "
        f"{len(plain)} untraced"
        + (f" + {len(traced)} traced" if args.trace else "")
        + " repetitions"
    )
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / attempted:>16.6g} ratio")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set the workload up and exit (timed by the parent for setup_s)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
