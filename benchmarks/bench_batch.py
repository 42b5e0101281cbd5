"""Batch-scheduler benchmark: simulated makespan vs one-job-at-a-time (ISSUE 2).

Runs the standard 32-job mixed workload (``repro.batch.mixed_workload`` —
eight benchmark functions across GPU engines, dims 8–64, swarms 128–1024)
through :class:`repro.batch.BatchScheduler` under every packing policy
(``fifo``, ``packed`` and the fused multi-swarm path, ISSUE 6) and reports
the *simulated* makespan against the sum of solo runtimes.  The acceptance
bar from ISSUE 2 is a ≥1.5x improvement on the default 4-streams-per-device
fleet; the benchmark asserts it so a scheduling regression fails loudly
instead of quietly shipping a worse number.

Only simulated results are recorded: host wall time is measured by the
interleaved-pair harness in ``perfbench/`` (the ``batch-mixed`` workload),
not by single runs here.

Determinism is checked in the same pass: every job's batch result must be
bit-identical (best value, best position, solo runtime) to a fresh solo run
of the same spec — the batch layer's core contract.  ``--check-parity``
deepens the check to the full serialized result payload
(``repro.io.result_to_dict``), which is what the golden tests pin, and adds
a dispatch-bound fleet (many small swarms, every job fusable) checked the
same way under ``packed`` and ``fused``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batch.py [--jobs 32] [--check-parity] [--out BENCH_batch.json]

The committed ``BENCH_batch.json`` pins the makespan trajectory; CI runs a
smoke version (fewer jobs, ``--check-parity``) to keep the signal alive
without slowing the suite.
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

import numpy as np

from repro.batch import BatchScheduler, mixed_workload
from repro.batch.scheduler import POLICIES
from repro.engines import make_engine

N_JOBS = 32
STREAMS = 4
SPEEDUP_FLOOR = 1.5  # acceptance bar: batch makespan vs sum-of-solo


def dispatch_bound_parity(n_jobs: int, streams: int) -> None:
    """Deep parity on a dispatch-bound fleet: ``n_jobs`` small sphere
    swarms (n=64, d=8, 200 iterations), so every job joins one fused group
    and runs most of its iterations as fused rounds."""
    from repro.batch import Job

    jobs = [
        Job(
            "sphere",
            dim=8,
            n_particles=64,
            max_iter=200,
            engine="fastpso",
            seed=9000 + i,
        )
        for i in range(n_jobs)
    ]
    solo = solo_baseline(jobs)
    for policy in ("packed", "fused"):
        batch = BatchScheduler(
            streams_per_device=streams, policy=policy
        ).run(jobs)
        check_bit_identical(batch, solo, deep=True)
    print(f"dispatch-bound ({n_jobs} x sphere-64x8x200): packed and fused "
          "bit-identical to solo")


def solo_baseline(jobs) -> list:
    """Fresh solo runs of every job — the determinism reference."""
    results = []
    for job in jobs:
        engine = make_engine(job.engine, **dict(job.engine_options))
        results.append(
            engine.optimize(
                job.resolved_problem(),
                n_particles=job.n_particles,
                max_iter=job.max_iter,
                params=job.resolved_params,
            )
        )
    return results


def check_bit_identical(batch, solo_results, *, deep: bool = False) -> None:
    from repro.io import result_to_dict

    for outcome, solo in zip(batch.outcomes, solo_results):
        label = outcome.job.label
        assert outcome.result.best_value == solo.best_value, label
        assert outcome.result.elapsed_seconds == solo.elapsed_seconds, label
        np.testing.assert_array_equal(
            outcome.result.best_position, solo.best_position, err_msg=label
        )
        if deep:
            # The whole serialized payload — per-section timings, setup
            # time, iteration count, peak bytes, status — must round-trip
            # identically; this is the parity contract the fused policy's
            # golden tests pin.
            assert result_to_dict(outcome.result) == result_to_dict(solo), label


def run(
    n_jobs: int, streams: int, n_devices: int, *, check_parity: bool = False
) -> dict:
    jobs = mixed_workload(n_jobs)
    solo = solo_baseline(jobs)
    sum_solo = sum(r.elapsed_seconds for r in solo)
    payload = {
        "workload": {
            "n_jobs": n_jobs,
            "n_devices": n_devices,
            "streams_per_device": streams,
            "sum_solo_seconds": sum_solo,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
        "policies": {},
    }
    for policy in POLICIES:
        scheduler = BatchScheduler(
            n_devices=n_devices, streams_per_device=streams, policy=policy
        )
        batch = scheduler.run(jobs)
        check_bit_identical(batch, solo, deep=check_parity)
        prof = batch.fleet_profile
        row = {
            "makespan_seconds": batch.makespan_seconds,
            "speedup": batch.speedup,
            "fleet_occupancy": batch.fleet_occupancy,
            "mean_queue_wait_seconds": batch.mean_queue_wait_seconds,
            "max_queue_wait_seconds": batch.max_queue_wait_seconds,
            "device_makespans": list(batch.device_makespans),
            "fleet_kernel_launches": sum(
                k.launches for k in prof.kernels.values()
            ),
            "bit_identical_to_solo": True,
        }
        if policy == "fused":
            row["fused_groups"] = [
                {
                    "members": g.get("members"),
                    "n_fused": g.get("n_fused"),
                    "fast_rounds": g.get("fast_rounds"),
                    "lane_seconds": g.get("lane_seconds"),
                }
                for g in batch.fused_rows
            ]
        payload["policies"][policy] = row
        print(
            f"{policy:8s} makespan={batch.makespan_seconds:.4f}s "
            f"speedup={batch.speedup:.2f}x "
            f"occupancy={batch.fleet_occupancy:.1%}"
        )
    if check_parity:
        dispatch_bound_parity(n_jobs, streams)
    best = max(p["speedup"] for p in payload["policies"].values())
    assert best >= SPEEDUP_FLOOR, (
        f"batch speedup {best:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )
    print(f"best speedup {best:.2f}x (floor {SPEEDUP_FLOOR}x) — OK")
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_batch.json", help="output JSON path")
    parser.add_argument(
        "--jobs",
        type=int,
        default=N_JOBS,
        help="workload size (CI smoke runs use a smaller value)",
    )
    parser.add_argument("--streams", type=int, default=STREAMS)
    parser.add_argument("--devices", type=int, default=1)
    parser.add_argument(
        "--check-parity",
        action="store_true",
        help=(
            "additionally compare every job's full serialized result "
            "(repro.io.result_to_dict) against its solo run"
        ),
    )
    args = parser.parse_args()
    payload = run(
        args.jobs, args.streams, args.devices, check_parity=args.check_parity
    )
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
