"""Write-ahead journal: frame format, torn tails, crash-recovery identity.

The durability contract under test: every state transition is journaled
*before* it takes effect, so a SIGKILL at any journaled record — simulated
here with ``journal_kill_mode="raise"``, which tears through the service
exactly like a kill signal but keeps the test process alive — followed by
``OptimizationService.recover()`` and a resumed drill yields final results
and an event log byte-identical to the uninterrupted run.
"""

import asyncio
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.batch import Job
from repro.core.problem import Problem
from repro.errors import JournalError
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.reliability.retry import RetryPolicy
from repro.serve import AutoscalePolicy, OptimizationService
from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalKillPoint,
    ServiceJournal,
    read_journal,
)

JOBS = [
    Job("sphere", dim=8, n_particles=32, max_iter=25, engine="fastpso", seed=s)
    for s in range(3)
]
ARRIVALS = [0.0, 1e-5, 2e-5]
KW = dict(n_devices=1, streams_per_device=2, checkpoint_every=5)


def drive(service, start=0, arrivals=ARRIVALS):
    async def main():
        for i in range(start, len(JOBS)):
            await service.submit(JOBS[i], at=arrivals[i])
        await service.drain()

    asyncio.run(main())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted journaled run: the byte-identity yardstick."""
    root = tmp_path_factory.mktemp("journal_ref")
    service = OptimizationService(journal_dir=root / "wal", **KW)
    drive(service)
    return service


# The mixed drill journals every event kind a live service does: a burst
# that scales the fleet up and back down, a memory-ladder degrade (64x8 at
# 10 000 B over 2 lanes halves to 32 particles), a device-lost retry, a
# queued cancel, a max_queue shed, and a late arrival after the fleet
# drained (scale-down, then a scale-up that provisions a fresh index).
MIXED_JOBS = [
    Job(
        "sphere", dim=8, n_particles=64 if s == 2 else 32, max_iter=8,
        engine="fastpso", seed=s,
    )
    for s in range(9)
]
MIXED_ARRIVALS = [i * 1e-5 for i in range(8)] + [1.0]
MIXED_CANCEL = 5  # the client cancels this job while it is still queued
MIXED_KW = dict(
    n_devices=1,
    streams_per_device=2,
    checkpoint_every=3,
    journal_fsync=False,  # kill points fire in-process; fsync adds nothing
    autoscale=AutoscalePolicy(
        min_devices=1, max_devices=2, queue_high=1, idle_observations=1
    ),
    max_queue=2,
    memory_limit_bytes=10_000,
    faults=FaultPlan({1: (FaultSpec("device_lost", after=6),)}, seed=3),
    retry=RetryPolicy(max_attempts=2, backoff_seconds=1e-4),
)


def drive_mixed(service, start=0):
    async def main():
        for i, (job, at) in enumerate(zip(MIXED_JOBS, MIXED_ARRIVALS)):
            if i >= start:
                await service.submit(job, at=at)
            # Re-issued after a crash between this submit and the cancel.
            if i == MIXED_CANCEL and service.status(i)["status"] == "queued":
                service.cancel(i)
        await service.drain()

    asyncio.run(main())


def ticket_state(service):
    """Every observable of every ticket, for recovered-vs-live equality."""
    return [
        (
            t.to_row(),
            t.admission_action,
            t.admission_reason,
            t.effective_job,
            t.placement,
        )
        for t in service._tickets
    ]


@pytest.fixture(scope="module")
def mixed_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("journal_mixed")
    service = OptimizationService(journal_dir=root / "wal", **MIXED_KW)
    drive_mixed(service)
    kinds = {e.kind for e in service.events}
    assert kinds >= {
        "submit", "admit", "degrade", "shed", "dispatch", "retry",
        "complete", "cancel", "scale_up", "scale_down",
    }, kinds
    return service


class TestWalFormat:
    def test_every_record_is_a_crc_guarded_frame(self, reference):
        path = reference.journal_dir / "service.wal"
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines, "journal must not be empty"
        for seq, line in enumerate(lines):
            head, payload = line.split(b" ", 4)[:4], line.split(b" ", 4)[4]
            magic, version, crc_hex, length = head
            assert magic == b"FASTPSO-WAL"
            assert int(version) == JOURNAL_SCHEMA_VERSION
            body = payload.rstrip(b"\n")
            assert len(body) == int(length)
            assert int(crc_hex, 16) == zlib.crc32(body) & 0xFFFFFFFF
            record = json.loads(body)
            assert record["seq"] == seq  # dense, ascending

    def test_reader_round_trips_all_records(self, reference):
        path = reference.journal_dir / "service.wal"
        records, valid_bytes = read_journal(path)
        assert valid_bytes == path.stat().st_size
        assert [r["seq"] for r in records] == list(range(len(records)))
        kinds = [
            r["event"]["kind"] for r in records if r["type"] == "event"
        ]
        assert kinds.count("submit") == len(JOBS)
        assert kinds.count("complete") == len(JOBS)

    def test_corrupt_record_stops_the_replay_there(self, reference, tmp_path):
        src = reference.journal_dir / "service.wal"
        raw = src.read_bytes()
        lines = raw.splitlines(keepends=True)
        # Flip one payload byte of a middle record: its CRC no longer
        # matches, so the reader must stop right before it.
        victim = len(lines) // 2
        broken = bytearray(lines[victim])
        broken[-2] ^= 0xFF
        lines[victim] = bytes(broken)
        path = tmp_path / "service.wal"
        path.write_bytes(b"".join(lines))
        records, valid_bytes = read_journal(path)
        assert len(records) == victim
        assert valid_bytes == sum(len(line) for line in lines[:victim])

    def test_torn_tail_is_dropped(self, reference, tmp_path):
        src = reference.journal_dir / "service.wal"
        lines = src.read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path = tmp_path / "service.wal"
        path.write_bytes(torn)
        records, valid_bytes = read_journal(path)
        assert len(records) == len(lines) - 1
        assert valid_bytes == sum(len(line) for line in lines[:-1])

    def test_reopen_truncates_torn_tail_and_continues_seq(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        for i in range(3):
            journal.append({"type": "noop", "i": i})
        journal.close()
        path = tmp_path / "service.wal"
        # Tear the last record in half, as a crash mid-write would.
        raw = path.read_bytes()
        lines = raw.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]) + lines[-1][:7])
        reopened = ServiceJournal(tmp_path)
        reopened.append({"type": "noop", "i": 99})
        reopened.close()
        records, valid_bytes = read_journal(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert [r["i"] for r in records] == [0, 1, 99]
        assert valid_bytes == path.stat().st_size

    def test_bad_kill_mode_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            ServiceJournal(tmp_path, kill_at=1, kill_mode="explode")


def _kill_point(reference, *, want):
    """Seq of the first journal record matching *want* (kind or type)."""
    records, _ = read_journal(reference.journal_dir / "service.wal")
    for record in records:
        if record["type"] == want:
            return record["seq"]
        if (
            record["type"] == "event"
            and record["event"]["kind"] == want
        ):
            return record["seq"]
    raise AssertionError(f"no {want!r} record in the reference journal")


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "want", ["submit", "dispatch", "progress", "checkpoint", "complete"]
    )
    def test_kill_then_recover_is_byte_identical(
        self, reference, tmp_path, want
    ):
        seq = _kill_point(reference, want=want)
        wal = tmp_path / "wal"
        service = OptimizationService(
            journal_dir=wal,
            journal_kill_at=seq,
            journal_kill_mode="raise",
            **KW,
        )
        with pytest.raises(JournalKillPoint):
            drive(service)
        if want == "checkpoint":
            # The acceptance bar: a mid-run kill with a checkpoint
            # actually on disk, so resume is restore-based, not a rerun.
            ckpts = list((wal / "checkpoints").rglob("*.ckpt"))
            assert ckpts, "kill point must leave a checkpoint on disk"
        recovered = OptimizationService.recover(wal, **KW)
        drive(recovered, start=len(recovered.status()))
        assert recovered.events_json() == reference.events_json()
        for ours, theirs in zip(recovered._tickets, reference._tickets):
            assert ours.status == theirs.status == "completed"
            assert ours.result.best_value == theirs.result.best_value
            assert (
                ours.result.elapsed_seconds == theirs.result.elapsed_seconds
            )

    @pytest.mark.parametrize(
        "arrivals",
        [ARRIVALS, [0.0, 0.0, 0.0]],
        ids=["spaced", "same-instant"],
    )
    def test_every_record_is_a_valid_kill_point(self, tmp_path, arrivals):
        """Exhaustive sweep: no crash window between any two records.

        With every job arriving at one instant, a crash inside a submit
        leaves that submit's closing dispatch pass undone; the next
        same-instant submit must still see the jobs it would have started.
        """
        reference = OptimizationService(journal_dir=tmp_path / "ref", **KW)
        drive(reference, arrivals=arrivals)
        records, _ = read_journal(reference.journal_dir / "service.wal")
        for seq in range(len(records)):
            wal = tmp_path / f"wal{seq:03d}"
            service = OptimizationService(
                journal_dir=wal,
                journal_kill_at=seq,
                journal_kill_mode="raise",
                **KW,
            )
            with pytest.raises(JournalKillPoint):
                drive(service, arrivals=arrivals)
            recovered = OptimizationService.recover(wal, **KW)
            drive(recovered, start=len(recovered.status()), arrivals=arrivals)
            assert recovered.events_json() == reference.events_json(), (
                f"divergence after kill at record {seq} "
                f"({records[seq].get('type')})"
            )

    def test_every_record_of_the_mixed_drill_is_a_valid_kill_point(
        self, mixed_reference, tmp_path
    ):
        """Kill after each record of the mixed drill; recovery must match
        the uninterrupted run's event log and every ticket's state."""
        records, _ = read_journal(mixed_reference.journal_dir / "service.wal")
        expected = ticket_state(mixed_reference)
        for seq in range(len(records)):
            wal = tmp_path / f"wal{seq:03d}"
            service = OptimizationService(
                journal_dir=wal,
                journal_kill_at=seq,
                journal_kill_mode="raise",
                **MIXED_KW,
            )
            with pytest.raises(JournalKillPoint):
                drive_mixed(service)
            recovered = OptimizationService.recover(wal, **MIXED_KW)
            drive_mixed(recovered, start=len(recovered.status()))
            where = f"kill at record {seq} ({records[seq].get('type')})"
            assert (
                recovered.events_json() == mixed_reference.events_json()
            ), where
            assert ticket_state(recovered) == expected, where

    def test_unjournaled_job_is_failed_but_keeps_its_scale_tick(
        self, tmp_path
    ):
        """A job whose spec cannot be journaled (custom objective) cannot be
        rebuilt: recovery fails it wherever the crash leaves it unfinished.
        Cut off between its verdict and its autoscale tick, it still gets
        the tick, so the fleet scales exactly as when the tick survived."""
        custom = Problem.from_callable(
            lambda x: np.sum(x * x, axis=1), 8, (-5.0, 5.0), vectorized=True
        )
        jobs = [
            Job(
                custom if s == 2 else "sphere", dim=8, n_particles=32,
                max_iter=8, engine="fastpso", seed=s,
            )
            for s in range(4)
        ]
        arrivals = [i * 1e-5 for i in range(4)]
        kw = dict(
            n_devices=1,
            streams_per_device=1,
            checkpoint_every=3,
            journal_fsync=False,
            autoscale=AutoscalePolicy(1, 2, queue_high=1, idle_observations=1),
        )

        def run(service, start=0):
            async def main():
                for i in range(start, len(jobs)):
                    await service.submit(jobs[i], at=arrivals[i])
                await service.drain()

            asyncio.run(main())

        reference = OptimizationService(journal_dir=tmp_path / "ref", **kw)
        run(reference)
        assert [t.status for t in reference._tickets] == ["completed"] * 4
        records, _ = read_journal(reference.journal_dir / "service.wal")

        def seq_of(kind, job_id=None):
            for record in records:
                row = record.get("event") or {}
                if row.get("kind") == kind and row.get("job_id") == job_id:
                    return record["seq"]
            raise AssertionError(f"no {kind} record for job {job_id}")

        # Job 2 is lost when the crash leaves it journaled but unfinished.
        lost = range(seq_of("submit", 2), seq_of("complete", 2))
        logs = {}
        for seq in range(len(records)):
            wal = tmp_path / f"wal{seq:03d}"
            service = OptimizationService(
                journal_dir=wal, journal_kill_at=seq,
                journal_kill_mode="raise", **kw,
            )
            with pytest.raises(JournalKillPoint):
                run(service)
            recovered = OptimizationService.recover(wal, **kw)
            run(recovered, start=len(recovered.status()))
            statuses = [t.status for t in recovered._tickets]
            where = f"kill at record {seq}"
            if seq in lost:
                assert statuses == [
                    "completed", "completed", "failed", "completed"
                ], where
                assert "not recoverable" in (
                    recovered._tickets[2].admission_reason
                ), where
            else:
                assert statuses == ["completed"] * 4, where
                assert (
                    recovered.events_json() == reference.events_json()
                ), where
            logs[seq] = recovered.events_json()

        # Job 2's tick (scale_obs right after its admit) scales the fleet
        # up.  A crash before, inside or after that tick recovers to the
        # same log: the redone tick keeps the observation and its decision.
        verdict = seq_of("admit", 2)
        scale_up = seq_of("scale_up")
        assert records[verdict + 1]["type"] == "scale_obs"
        assert scale_up == verdict + 2
        assert logs[verdict] == logs[verdict + 1] == logs[scale_up]
        first_scale = next(
            e for e in json.loads(logs[verdict])["events"]
            if e["kind"].startswith("scale")
        )
        assert (first_scale["kind"], first_scale["time"]) == (
            "scale_up", arrivals[2],
        )

    def test_finished_results_served_without_rerunning(
        self, reference, tmp_path, monkeypatch
    ):
        import shutil

        import repro.batch.dispatch as dispatch_mod

        wal = tmp_path / "wal"
        shutil.copytree(reference.journal_dir, wal)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("recovery re-ran a finished job")

        # The attempt loop imports RunningJob from its home module when an
        # attempt starts, so that is where a re-run would be caught.
        monkeypatch.setattr(dispatch_mod, "RunningJob", boom)
        recovered = OptimizationService.recover(wal, **KW)
        for ours, theirs in zip(recovered._tickets, reference._tickets):
            assert ours.status == "completed"
            assert ours.result.best_value == theirs.result.best_value
        assert recovered.events_json() == reference.events_json()

    def test_recovered_ticket_reenters_admission_as_queued(self, tmp_path):
        # Kill right after the very first submit record: the job is
        # journaled but its admission verdict is not — recovery must
        # re-run admission and leave it queued at its original arrival.
        wal = tmp_path / "wal"
        service = OptimizationService(
            journal_dir=wal, journal_kill_at=0, journal_kill_mode="raise", **KW
        )
        with pytest.raises(JournalKillPoint):
            drive(service)
        recovered = OptimizationService.recover(wal, **KW)
        tickets = recovered._tickets
        assert [t.job_id for t in tickets] == [0]
        assert tickets[0].status == "queued"
        assert tickets[0].arrival == ARRIVALS[0]


class TestDegradedReadOnly:
    def _blocked_dir(self, tmp_path):
        # A regular file where the journal wants a directory: mkdir fails
        # with an OSError for every uid, root included (unlike chmod 555).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        return blocker / "wal"

    def test_unwritable_journal_refuses_submissions(self, tmp_path):
        service = OptimizationService(
            journal_dir=self._blocked_dir(tmp_path), **KW
        )
        assert service.read_only
        assert service.journal_error is not None
        assert service.journal_error["error"] == "JournalError"

        async def main():
            return await service.submit(JOBS[0], at=0.0)

        ticket = asyncio.run(main())
        assert ticket.status == "refused"
        assert ticket.finished
        assert service.refusals and service.refusals[0]["job"] == JOBS[0].label
        kinds = [e.kind for e in service.events]
        assert kinds == ["refused"]

    def test_status_and_stream_keep_working(self, tmp_path):
        service = OptimizationService(
            journal_dir=self._blocked_dir(tmp_path), **KW
        )

        async def main():
            ticket = await service.submit(JOBS[0], at=0.0)
            updates = [u async for u in ticket.stream()]
            return ticket, updates

        ticket, updates = asyncio.run(main())
        # The refused ticket is terminal: its stream ends immediately and
        # status() still answers — degraded means read-only, not dead.
        assert updates == []
        assert service.status(ticket.job_id)["status"] == "refused"
        report = service.report()
        assert report.shed_rate == 1.0
        assert report.p50_latency_seconds == 0.0
        assert report.p99_latency_seconds == 0.0
        assert report.mean_latency_seconds == 0.0

    def test_append_failure_mid_flight_degrades(self, tmp_path):
        service = OptimizationService(journal_dir=tmp_path / "wal", **KW)
        assert not service.read_only

        async def main():
            first = await service.submit(JOBS[0], at=0.0)
            await service.drain()

            def fail(record):
                raise OSError("disk gone")

            service._journal.append = fail
            # The submission that trips the failure is already in memory
            # when the append dies — it still runs (read-only mode serves
            # what it has); everything after it is refused.
            second = await service.submit(JOBS[1])
            third = await service.submit(JOBS[2])
            return first, second, third

        first, second, third = asyncio.run(main())
        assert first.status == "completed"
        assert service.read_only
        assert second.status == "completed"
        assert third.status == "refused"

    def test_recover_refuses_unreadable_journal_dir(self, tmp_path):
        with pytest.raises(JournalError):
            OptimizationService.recover(self._blocked_dir(tmp_path), **KW)
