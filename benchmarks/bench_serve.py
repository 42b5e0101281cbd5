"""Serving benchmark: 1000-session load drill, autoscale on vs off (ISSUE 7).

Replays the default :class:`repro.serve.LoadProfile` arrival storm —
``--sessions`` clients (1000 by default) submitting the standard sphere
job with exponential inter-arrival gaps in *virtual* seconds — against
:class:`repro.serve.OptimizationService` twice: once pinned at one
simulated device, once with autoscaling enabled up to ``--max-devices``.
Reports p50/p99 latency, mean latency, throughput and shed rate for both
fleets; every latency is virtual time, so the on-vs-off comparison is
exact and machine-independent.

Two contracts are asserted in the same pass:

- **Determinism** — the autoscaled drill is run twice and its canonical
  event logs (``events_json``) must be byte-identical, including every
  recorded scaling decision.
- **Parity** — a sample of served results is compared bit-for-bit
  (best value, best position, solo runtime) against fresh solo runs of
  the same job specs: serving adds queueing, never arithmetic.
- **Journal overhead** — the pinned drill is repeated with the
  write-ahead journal enabled (group-committed fsync on and off) and the
  host-wall overhead recorded; the journaled event logs must stay
  byte-identical to the unjournaled run, so durability never changes a
  decision, only costs host time.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py [--sessions 1000] [--out BENCH_serve.json]

The committed ``BENCH_serve.json`` pins the tail-latency win; CI runs the
CLI drill (``python -m repro.serve``) twice and byte-compares the event
logs instead of repeating this full benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.engines import make_engine
from repro.serve import (
    AutoscalePolicy,
    LoadProfile,
    OptimizationService,
    replay,
)

N_SESSIONS = 1000
MAX_DEVICES = 4
PARITY_SAMPLE = 8


def drill(profile: LoadProfile, **service_kwargs):
    """One replay; returns (service, tickets, host_wall_seconds)."""
    service = OptimizationService(**service_kwargs)
    t0 = time.perf_counter()
    tickets = asyncio.run(replay(service, profile))
    return service, tickets, time.perf_counter() - t0


def check_parity(profile: LoadProfile, tickets) -> int:
    """Served results must be bit-identical to fresh solo runs."""
    completed = [t for t in tickets if t.status == "completed"]
    sample = completed[:: max(1, len(completed) // PARITY_SAMPLE)]
    for ticket in sample:
        job = ticket.job
        solo = make_engine(job.engine).optimize(
            job.resolved_problem(),
            n_particles=job.n_particles,
            max_iter=job.max_iter,
            params=job.resolved_params,
        )
        label = job.label
        assert ticket.result.best_value == solo.best_value, label
        np.testing.assert_array_equal(
            ticket.result.best_position, solo.best_position, err_msg=label
        )
        assert ticket.result.elapsed_seconds == solo.elapsed_seconds, label
    return len(sample)


def fleet_row(service, wall: float) -> dict:
    report = service.report()
    return {
        **report.to_dict(),
        "host_wall_seconds": wall,
        "n_events": len(service.events),
    }


def journal_section(profile: LoadProfile, reference) -> dict:
    """Journal on-vs-off: host-wall overhead, byte-identical decisions."""
    import tempfile

    root = Path(tempfile.mkdtemp(prefix="bench_serve_wal_"))
    rows = {}
    for label, fsync in (("fsync", True), ("no_fsync", False)):
        walls = []
        for attempt in ("a", "b"):
            wal = root / f"{label}_{attempt}"
            service, _, wall = drill(
                profile,
                n_devices=1,
                autoscale=None,
                journal_dir=wal,
                journal_fsync=fsync,
            )
            walls.append(wall)
            # Replay byte-identity holds with the journal on, in both
            # fsync modes, and against the unjournaled reference run:
            # durability adds records, never decisions.
            assert service.events_json() == reference.events_json(), (
                f"journaled drill ({label}/{attempt}) diverged from the "
                "unjournaled reference"
            )
        wal_file = root / f"{label}_b" / "service.wal"
        rows[label] = {
            "host_wall_seconds": min(walls),
            "wal_bytes": wal_file.stat().st_size,
        }
    print(
        "journal: event logs byte-identical in both fsync modes — OK "
        f"(wal={rows['fsync']['wal_bytes']} bytes)"
    )
    return rows


def run(n_sessions: int, max_devices: int) -> dict:
    profile = LoadProfile(n_sessions=n_sessions)
    autoscale = AutoscalePolicy(min_devices=1, max_devices=max_devices)

    pinned, pinned_tickets, pinned_wall = drill(
        profile, n_devices=1, autoscale=None
    )
    scaled, scaled_tickets, scaled_wall = drill(
        profile, n_devices=1, autoscale=autoscale
    )

    # Determinism: the autoscaled drill — scaling decisions included —
    # replays to a byte-identical event log.
    rerun, _, _ = drill(profile, n_devices=1, autoscale=autoscale)
    assert scaled.events_json() == rerun.events_json(), (
        "serve drill event logs diverged between identical runs"
    )
    print(f"determinism: {len(scaled.events)} events byte-identical — OK")

    n_checked = check_parity(profile, scaled_tickets)
    print(f"parity: {n_checked} served results bit-identical to solo — OK")

    journal_rows = journal_section(profile, pinned)
    journal_rows["off"] = {"host_wall_seconds": pinned_wall}
    baseline = pinned_wall or float("nan")
    for label in ("fsync", "no_fsync"):
        row = journal_rows[label]
        row["overhead_vs_off"] = row["host_wall_seconds"] / baseline
        print(
            f"journal {label:9s}: wall={row['host_wall_seconds']:.3f}s "
            f"({row['overhead_vs_off']:.2f}x of unjournaled)"
        )

    on = scaled.report()
    off = pinned.report()
    payload = {
        "profile": {
            "n_sessions": profile.n_sessions,
            "seed": profile.seed,
            "mean_interarrival": profile.mean_interarrival,
            "problem": profile.problem,
            "dim": profile.dim,
            "n_particles": profile.n_particles,
            "max_iter": profile.max_iter,
            "tenants": list(map(list, profile.tenants)),
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
        "autoscale_off": fleet_row(pinned, pinned_wall),
        "autoscale_on": fleet_row(scaled, scaled_wall),
        "p99_improvement": off.p99_latency_seconds / on.p99_latency_seconds,
        "throughput_improvement": (
            on.throughput_per_second / off.throughput_per_second
        ),
        "events_byte_identical": True,
        "parity_sample_size": n_checked,
        "journal": journal_rows,
        "journal_events_byte_identical": True,
    }
    for label, report in (("off", off), ("on", on)):
        print(
            f"autoscale {label:3s}: p50={report.p50_latency_seconds:.4f}s "
            f"p99={report.p99_latency_seconds:.4f}s "
            f"throughput={report.throughput_per_second:.1f}/s "
            f"shed={report.shed_rate:.1%} "
            f"devices={report.devices_provisioned}"
        )
    assert on.p99_latency_seconds < off.p99_latency_seconds, (
        "autoscaling failed to improve tail latency"
    )
    print(
        f"p99 improvement {payload['p99_improvement']:.2f}x, "
        f"throughput {payload['throughput_improvement']:.2f}x — OK"
    )
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json", help="output JSON path")
    parser.add_argument(
        "--sessions",
        type=int,
        default=N_SESSIONS,
        help="client session count (CI smoke runs use a smaller value)",
    )
    parser.add_argument("--max-devices", type=int, default=MAX_DEVICES)
    args = parser.parse_args()
    payload = run(args.sessions, args.max_devices)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
