"""Cross-commit pins for the retry/failover attempt loop.

Every other reliability test compares two runs of the *same* code.  These
pin the exact outputs of the attempt loop — results, recovery arithmetic,
breaker timestamps, error rows and serve event logs — as sha256 digests
stored in ``tests/data/attempt_pins.json``, so a refactor of the loop that
changes a single float fails here even when it stays self-consistent.

The third group of cases fails one job twice before the CPU fallback on
every host (``run_with_recovery``, the batch scheduler and the serving
layer): recovery overhead is a sum of lost work and backoff per failure,
and the order of those additions only shows up in the bits after a
second failure.

Regenerate the stored digests (only for an intended behaviour change)
with ``PYTHONPATH=src python tests/reliability/test_attempt_pins.py``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

import pytest

from repro.batch import BatchScheduler, Job, mixed_workload
from repro.io import result_to_dict
from repro.reliability import (
    BreakerPolicy,
    CheckpointManager,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FleetHealth,
    RetryPolicy,
    run_with_recovery,
)
from repro.serve import OptimizationService
from repro.serve.journal import read_journal

PINS = Path(__file__).resolve().parents[1] / "data" / "attempt_pins.json"

#: Two launch failures on one job: attempts 1 and 2 fail, attempt 3 runs
#: on the CPU fallback.  Backoff is of the same order as the lost work so
#: the float order of the overhead sum matters.
TWICE = (
    FaultSpec("launch_failure", after=9),
    FaultSpec("launch_failure", after=40),
)
TWICE_POLICY = RetryPolicy(max_attempts=3, backoff_seconds=3e-4)
TWICE_JOB = Job(
    "rastrigin", dim=6, n_particles=48, max_iter=24, engine="fastpso", seed=5
)


def digest(payload) -> str:
    """sha256 of canonical JSON; ``repr`` floats keep every bit."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _result(result):
    return None if result is None else result_to_dict(result)


def _report_payload(report) -> dict:
    return {
        "result": _result(report.result),
        "attempts": report.attempts,
        "errors": list(report.errors),
        "error_rows": [dict(row) for row in report.error_rows],
        "fell_back": report.fell_back_to_cpu,
        "device": report.device_index,
        "lost": report.lost_seconds,
        "backoff": report.backoff_seconds,
        "recovery": report.recovery_seconds,
    }


class _RecordingScheduler(BatchScheduler):
    """Keeps every per-job recovery report (error rows live only there)."""

    def run(self, jobs=None):
        self.reports = []
        return super().run(jobs)

    def _execute(self, *args, **kwargs):
        report = super()._execute(*args, **kwargs)
        self.reports.append(report)
        return report


def _batch_payload(scheduler, batch) -> dict:
    return {
        "results": [_result(o.result) for o in batch.outcomes],
        "makespan": batch.makespan_seconds,
        "device_makespans": list(batch.device_makespans),
        "recovery": [
            [o.lost_seconds, o.backoff_seconds, o.recovery_seconds]
            for o in batch.outcomes
        ],
        "placement": [
            [o.device_index, o.stream_index, o.start_seconds, o.end_seconds]
            for o in batch.outcomes
        ],
        "attempts": [
            [o.attempts, o.error, o.fell_back_to_cpu] for o in batch.outcomes
        ],
        "error_rows": [
            [dict(row) for row in r.error_rows] for r in scheduler.reports
        ],
        "breaker_rows": [dict(row) for row in batch.breaker_rows],
    }


def _drive(service, jobs, arrivals):
    async def main():
        for job, at in zip(jobs, arrivals):
            await service.submit(job, at=at)
        await service.drain()

    asyncio.run(main())


def _journal_retries(journal_dir) -> list:
    records, _ = read_journal(Path(journal_dir) / "service.wal")
    return [
        [r["event"]["job_id"], r.get("extra")]
        for r in records
        if r["type"] == "event" and r["event"]["kind"] == "retry"
    ]


# -- the cases ----------------------------------------------------------------
def case_batch_drill(tmp: Path) -> dict:
    scheduler = _RecordingScheduler(
        n_devices=2,
        streams_per_device=4,
        retry=RetryPolicy(4),
        faults=FaultPlan.drill(32, seed=7),
        checkpoint_dir=tmp / "ckpt",
        checkpoint_every=5,
        breaker=True,
    )
    batch = scheduler.run(mixed_workload(32, base_seed=7))
    return _batch_payload(scheduler, batch)


def case_serve_drill(tmp: Path) -> dict:
    from repro.serve.__main__ import main

    out = tmp / "events.json"
    code = main(
        [
            "--sessions", "24", "--seed", "7", "--faults", "drill",
            "--retry", "3", "--events-json", str(out),
        ]
    )
    return {"exit": code, "events": out.read_text()}


def case_serve_watchdog(tmp: Path) -> dict:
    jobs = [
        Job("sphere", dim=8, n_particles=32, max_iter=25, seed=s)
        for s in range(3)
    ]
    service = OptimizationService(
        n_devices=1,
        streams_per_device=2,
        journal_dir=tmp / "wal",
        checkpoint_every=5,
        faults=FaultPlan(
            {1: (FaultSpec("stall", after=8, stall_seconds=5e-3),)}, seed=7
        ),
        retry=RetryPolicy(max_attempts=3, backoff_seconds=1e-4),
        watchdog_seconds=1e-3,
        breaker=True,
    )
    _drive(service, jobs, [0.0, 1e-5, 2e-5])
    return {
        "events": service.events_json(),
        "retries": _journal_retries(tmp / "wal"),
    }


def case_twice_recovery(tmp: Path) -> dict:
    health = FleetHealth(2, policy=BreakerPolicy(failure_threshold=1))
    report = run_with_recovery(
        engine_name=TWICE_JOB.engine,
        problem=TWICE_JOB.resolved_problem(),
        n_particles=TWICE_JOB.n_particles,
        max_iter=TWICE_JOB.max_iter,
        params=TWICE_JOB.resolved_params,
        record_history=True,
        policy=TWICE_POLICY,
        injector=FaultInjector(list(TWICE), seed=1),
        checkpoint=CheckpointManager(tmp / "ckpt", every=4, keep=2),
        health=health,
        job_label="twice",
        base_now=0.5,
    )
    return {**_report_payload(report), "breaker_rows": health.to_rows()}


def case_twice_batch(tmp: Path) -> dict:
    scheduler = _RecordingScheduler(
        n_devices=2,
        streams_per_device=2,
        retry=TWICE_POLICY,
        faults=FaultPlan({1: TWICE}, seed=1),
        checkpoint_dir=tmp / "ckpt",
        checkpoint_every=4,
        breaker=BreakerPolicy(failure_threshold=1),
    )
    jobs = [TWICE_JOB.with_overrides(seed=s, name=f"j{s}") for s in range(3)]
    batch = scheduler.run(jobs)
    return _batch_payload(scheduler, batch)


def case_twice_serve(tmp: Path) -> dict:
    service = OptimizationService(
        n_devices=1,
        streams_per_device=2,
        journal_dir=tmp / "wal",
        checkpoint_every=4,
        faults=FaultPlan({1: TWICE}, seed=1),
        retry=TWICE_POLICY,
        breaker=BreakerPolicy(failure_threshold=2),
    )
    jobs = [TWICE_JOB.with_overrides(seed=s) for s in range(3)]
    _drive(service, jobs, [0.0, 1e-5, 2e-5])
    return {
        "events": service.events_json(),
        "retries": _journal_retries(tmp / "wal"),
    }


CASES = {
    "batch_drill": case_batch_drill,
    "serve_drill": case_serve_drill,
    "serve_watchdog": case_serve_watchdog,
    "twice_recovery": case_twice_recovery,
    "twice_batch": case_twice_batch,
    "twice_serve": case_twice_serve,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_attempt_loop_outputs_are_pinned(name, tmp_path, capsys):
    stored = json.loads(PINS.read_text())
    payload = CASES[name](tmp_path)
    capsys.readouterr()  # the serve CLI case prints its summary
    assert digest(payload) == stored[name], (
        f"{name}: attempt-loop output drifted from the pinned digest"
    )


def test_twice_cases_really_fail_twice_then_fall_back(tmp_path):
    """The cases above only guard float order if they reach a 3rd attempt."""
    report = case_twice_recovery(tmp_path / "r")
    assert report["attempts"] == 3 and report["fell_back"]
    batch = case_twice_batch(tmp_path / "b")
    assert batch["attempts"][1] == [3, batch["attempts"][1][1], True]
    events = json.loads(case_twice_serve(tmp_path / "s")["events"])["events"]
    complete = next(
        e for e in events if e["kind"] == "complete" and e["job_id"] == 1
    )
    assert complete["detail"]["attempts"] == 3
    assert complete["detail"]["cpu_fallback"] is True


if __name__ == "__main__":
    import tempfile

    pins = {}
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            pins[name] = digest(case(Path(tmp)))
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
