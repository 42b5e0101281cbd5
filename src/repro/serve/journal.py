"""Write-ahead journal for the serving layer: durable state transitions.

Every state transition the service makes — submit, admission verdict,
dispatch, progress watermark, checkpoint, retry, cancel, completion — is
appended here **before** it takes effect in memory.  The
resulting invariant is what crash recovery stands on: *journaled means it
happened; not journaled means it never happened*.  After SIGKILL,
:meth:`~repro.serve.service.OptimizationService.recover` replays the
journal to rebuild the exact service state, resumes the in-flight job
from its newest checkpoint, and continues — byte-identical to a run that
was never interrupted.  Replay applies each event record through
``OptimizationService._apply``, the same transition function the live
service calls right after appending the record, so a journaled event
means the same thing live and in recovery.

File format (version 1), one record per line::

    FASTPSO-WAL 1 <crc32-hex8> <payload-bytes> <payload>\\n
    <payload: compact UTF-8 JSON, no embedded newlines>

The framing mirrors the checkpoint header (:mod:`repro.reliability
.checkpoint`): an ASCII magic, a format version, a CRC-32 of the payload
bytes and the payload length — everything needed to validate a record
without parsing it.  The reader is torn-tail tolerant: a record
interrupted mid-write fails its length/CRC check and parsing stops there
— by the write-ahead ordering, the corresponding transition never took
effect, so dropping the tail is exactly correct.

A ``"checkpoint"`` record carries the whole
:meth:`~repro.reliability.snapshot.RunSnapshot.to_payload` document of
an in-flight job's resume point, so the journal is the service's one
durable artifact: ``service.wal`` is the only file in its directory.
(An older journal's checkpoint record holds a ``"path"`` to a checkpoint
file instead; recovery still reads those.)

Group commit
------------
:meth:`ServiceJournal.append` writes and flushes every record before the
caller applies its transition, so the write-ahead order holds and a
process crash (SIGKILL) never loses an appended record.  Power-loss
durability comes from :meth:`ServiceJournal.commit`, one ``fsync`` over
every record appended since the last commit (none when nothing was
appended; the directory itself is fsynced once at creation via
:func:`repro.io.fsync_directory`).  The service commits only where
control returns to a caller — the end of ``submit``/``resubmit``, a
queued ``cancel``, ``drain``, ``JobTicket.wait``, ``recover`` and
``close`` — never inside the step loop.  That keeps the invariant
*acked ⇒ durable*: what a caller was told happened survives power loss.
The progress and checkpoint records a run appends between two commits
may be lost to a power cut, which is harmless — runs are deterministic,
so the recovered run appends the same records again; only the inputs
(submits and cancels) must be durable before they are acknowledged.

Each record carries a dense ``seq`` number; :class:`ServiceJournal`
truncates any torn tail when it reopens an existing journal for append,
so recovery continues the sequence without gaps.

Deterministic kill points
-------------------------
``kill_at``/``kill_mode`` turn the journal into a crash harness: once
the record with that sequence number is appended, the writer commits
it, then either SIGKILLs its own process (``"sigkill"``, the CI smoke)
or raises :class:`JournalKillPoint` (``"raise"``, for in-process
tests).  Either way the record *is* on disk and the transition it
announces has not yet been applied — the exact window recovery must
handle.
"""

from __future__ import annotations

import json
import os
import signal
import zlib
from pathlib import Path

from repro.batch.job import Job
from repro.core.budget import Budget
from repro.errors import CheckpointError, JournalError
from repro.io import fsync_directory
from repro.reliability.snapshot import (
    ensure_capturable,
    params_from_spec,
    params_to_spec,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalKillPoint",
    "ServiceJournal",
    "job_from_spec",
    "job_to_spec",
    "read_journal",
]

_MAGIC = b"FASTPSO-WAL"
#: Version written into every record header.
JOURNAL_SCHEMA_VERSION = 1

_FILENAME = "service.wal"


class JournalKillPoint(BaseException):
    """In-process kill point fired by ``kill_mode="raise"``.

    Derives from :class:`BaseException` on purpose: the service's failure
    containment catches :class:`~repro.errors.ReproError`, and a drill's
    simulated crash must tear through it like SIGKILL would.
    """

    def __init__(self, seq: int) -> None:
        super().__init__(f"journal kill point at record seq {seq}")
        self.seq = seq


def _frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = b"%s %d %08x %d " % (
        _MAGIC,
        JOURNAL_SCHEMA_VERSION,
        crc,
        len(payload),
    )
    return header + payload + b"\n"


def _parse_line(line: bytes) -> dict | None:
    """One framed record from *line* (no trailing newline), else ``None``."""
    parts = line.split(b" ", 4)
    if len(parts) != 5 or parts[0] != _MAGIC:
        return None
    try:
        version = int(parts[1])
        expected_crc = int(parts[2], 16)
        expected_len = int(parts[3])
    except ValueError:
        return None
    if version != JOURNAL_SCHEMA_VERSION:
        return None
    payload = parts[4]
    if len(payload) != expected_len:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != expected_crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def read_journal(path: str | Path) -> tuple[list[dict], int]:
    """Parse a journal file; returns ``(records, valid_bytes)``.

    Torn-tail tolerant: parsing stops at the first record that fails its
    framing, length or CRC check (or breaks ``seq`` continuity), and
    ``valid_bytes`` is the byte offset of the end of the last valid
    record — the truncation point for reopening the journal.  A missing
    file reads as an empty journal.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: list[dict] = []
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # torn tail: record never got its terminator
        record = _parse_line(raw[offset:newline])
        if record is None or record.get("seq") != len(records):
            break
        records.append(record)
        offset = newline + 1
    return records, offset


class ServiceJournal:
    """Append-only writer over one service's write-ahead journal.

    Opening an existing journal parses it (the surviving records are kept
    on :attr:`existing_records` for recovery), truncates any torn tail,
    and continues the sequence.  ``fsync=False`` never fsyncs, trading
    power-loss durability for speed (process-crash durability remains —
    the benchmark's journal-overhead section measures the difference).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: bool = True,
        kill_at: int | None = None,
        kill_mode: str = "sigkill",
    ) -> None:
        if kill_mode not in ("sigkill", "raise"):
            raise JournalError(
                f"kill_mode must be 'sigkill' or 'raise', got {kill_mode!r}"
            )
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME
        self.fsync = bool(fsync)
        self.kill_at = kill_at
        self.kill_mode = kill_mode
        # Any OSError here (read-only dir, permissions) propagates: the
        # service decides whether that means degraded mode or a hard fail.
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Records that survived in an existing journal (crash recovery
        #: replays these).  Empty for a fresh journal.
        self.existing_records, valid_bytes = read_journal(self.path)
        self._fh = open(self.path, "ab")
        if self._fh.tell() != valid_bytes:
            # Torn tail from the crashed writer: drop it before appending,
            # or the next record would be unreadable.
            self._fh.truncate(valid_bytes)
            self._fh.seek(valid_bytes)
        #: Sequence number of the next record (== records written so far).
        self.next_seq = len(self.existing_records)
        #: Whether records were appended since the last :meth:`commit`.
        self._uncommitted = False
        fsync_directory(self.directory)

    def append(self, record: dict) -> int:
        """Append one record; returns its sequence number.

        The record is written and flushed before this returns — the
        caller may then apply the transition; it becomes power-loss
        durable at the next :meth:`commit`.  Raises ``OSError`` when the
        directory has become unwritable (the service turns that into
        degraded read-only mode).
        """
        seq = self.next_seq
        framed = _frame({"seq": seq, **record})
        self._fh.write(framed)
        self._fh.flush()
        self._uncommitted = True
        self.next_seq = seq + 1
        if self.kill_at is not None and seq == self.kill_at:
            self.commit()
            if self.kill_mode == "raise":
                raise JournalKillPoint(seq)
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover
        return seq

    def commit(self) -> None:
        """fsync every record appended since the last commit.

        A no-op when nothing was appended, or with ``fsync=False``.
        Raises ``OSError`` like :meth:`append`.
        """
        if self.fsync and self._uncommitted:
            os.fsync(self._fh.fileno())
        self._uncommitted = False

    def close(self) -> None:
        """Close the file (without a commit: callers commit first)."""
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close failures are benign
            pass


# -- job (de)serialization ----------------------------------------------------
def job_to_spec(job: Job) -> dict | None:
    """JSON-safe spec of *job*, or ``None`` when it cannot be serialized.

    Only registry problems, registry inertia schedules and JSON-safe
    engine options survive a journal round-trip (same constraint as
    checkpoints: a journal is a plain versioned document, restoring never
    executes arbitrary code).  Unserializable jobs still run — they just
    cannot be rebuilt by recovery.
    """
    if isinstance(job.problem, str):
        problem = job.problem
    else:
        try:
            ensure_capturable(job.problem)
        except CheckpointError:
            return None
        problem = job.problem.name
    try:
        params = params_to_spec(job.params)
    except CheckpointError:
        return None
    options = dict(job.engine_options)
    try:
        json.dumps(options)
    except (TypeError, ValueError):
        return None
    return {
        "problem": problem,
        "dim": job.dim,
        "n_particles": job.n_particles,
        "max_iter": job.max_iter,
        "engine": job.engine,
        "params": params,
        "seed": job.seed,
        "name": job.name,
        "record_history": job.record_history,
        "engine_options": options,
        "priority": job.priority,
        "budget": job.budget.to_spec() if job.budget is not None else None,
    }


def job_from_spec(spec: dict) -> Job:
    """Inverse of :func:`job_to_spec`."""
    return Job(
        problem=spec["problem"],
        dim=int(spec["dim"]),
        n_particles=int(spec["n_particles"]),
        max_iter=int(spec["max_iter"]),
        engine=spec["engine"],
        params=params_from_spec(spec["params"]),
        seed=spec["seed"],
        name=spec["name"],
        record_history=bool(spec["record_history"]),
        engine_options=dict(spec["engine_options"]),
        priority=int(spec["priority"]),
        budget=(
            Budget.from_spec(spec["budget"])
            if spec.get("budget") is not None
            else None
        ),
    )
