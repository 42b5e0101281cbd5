"""The asyncio serving front-end: PSO optimization as a service.

:class:`OptimizationService` puts an async job API — submit, stream,
cancel, status — in front of the batch/reliability machinery.  Where
:class:`~repro.batch.scheduler.BatchScheduler` plans a *closed* batch,
the service runs an *open* system: jobs arrive over (virtual) time, are
gated by per-tenant quotas and the admission memory ladder, dispatched
onto a :class:`~repro.batch.dispatch.FleetTimeline` that an autoscaler
grows and shrinks, streamed while in flight, and cancellable at any
phase.

Determinism model — discrete-event simulation on two time axes
--------------------------------------------------------------
Every latency, timestamp and scaling decision lives in **virtual time**
(simulated seconds, the same axis the engines' ``SimClock`` uses); host
wall-clock never enters any decision.  Execution is host-sequential: one
job actually computes at a time (on the
:class:`~repro.batch.dispatch.RunningJob` stepped protocol, so results
are bit-identical to solo runs), and its measured simulated duration is
committed to the fleet timeline at the virtual start the dispatcher
reserved.  Arrivals must be submitted in non-decreasing virtual order
(``at=``); the service advances virtual time only as far as the latest
known arrival, so a later high-priority arrival can still overtake
queued work — and a seeded replay of the same arrival sequence
reproduces byte-identical event logs.

Durability — the write-ahead journal
------------------------------------
With ``journal_dir`` set, every state transition is appended to a
:class:`~repro.serve.journal.ServiceJournal` **before** it takes effect:
submits (with the full job spec), admission verdicts, dispatches,
progress watermarks, checkpoints (the whole run snapshot), retries,
cancellations and completions (with the exact committed duration and the
full result).  The journal file is the service's one durable artifact.
One method, ``OptimizationService._apply``, is the single transition
function for every event kind: live code builds the event, journals it,
and only then applies it through ``_apply``; recovery decodes each
journaled event and feeds it through the same ``_apply``, so live and
recovered state cannot drift apart.
The write-ahead ordering gives crash recovery its invariant — *journaled
means it happened; not journaled means it never happened* — so
:meth:`OptimizationService.recover` rebuilds the exact service state
after SIGKILL: queued tickets re-enter admission in their original
order, the in-flight job resumes bit-identically from its newest
checkpoint record, finished results are served from the journal without
re-running, and the post-recovery event log is byte-identical to an
uninterrupted run.

Records are written and flushed as they are appended (process-crash
durable) and fsynced by group commit: one ``fsync`` per call that
returns control to a caller — ``submit``/``resubmit`` on every path,
a queued ``cancel``, ``drain``, ``JobTicket.wait``, ``recover`` and
:meth:`OptimizationService.close` — and never in the step loop.  So
*acked ⇒ durable*: every submit and cancel a caller has heard back about
survives power loss.  The progress and checkpoint records of a running
job need no commit of their own: the run is deterministic, so after a
power cut the recovered run appends the same records again.  If the
journal directory becomes unwritable (an append or a commit fails) the
service degrades to **read-only mode**: status and streaming keep
working, submissions are refused with a structured
:class:`~repro.errors.JournalError` row.

Fault tolerance — retry, watchdog, CPU failover
-----------------------------------------------
Dispatch drives the shared attempt loop
(:class:`~repro.reliability.retry.AttemptLoop`), pinned to the reserved
lane.  Under ``retry`` a failed attempt banks the newest checkpoint,
charges the lost simulated work plus exponential backoff to the job's
journaled overhead, and goes around on a fresh engine (a fresh simulated
device); on the final attempt — or when the lane's breaker is open — it
degrades to the policy's CPU fallback, whose bit-identical numerics keep
the trajectory.  ``watchdog_seconds`` adds a progress lease to this
host's step loop: an attempt that advances simulated time past the lease
without a progress mark is stalled (:class:`~repro.errors
.StalledRunError`) and retried like a transient fault.  ``faults``
attaches a :class:`~repro.reliability.faults.FaultPlan`'s injectors to
dispatched jobs; unlike in the batch scheduler it implies no retry.

Who drives execution
--------------------
``submit()`` advances the simulation to the new arrival (dispatching
whatever starts earlier), ``drain()`` runs everything still queued, and
``JobTicket.wait()`` drives until that job finishes.  ``JobTicket.stream()``
only *observes* — it yields best-so-far improvements as some driver
executes the job, and ends at the job's terminal state.
"""

from __future__ import annotations

import asyncio
import bisect
import math
from dataclasses import dataclass
from pathlib import Path

from repro.batch.admission import ADMIT_REASON
from repro.batch.dispatch import (
    FleetTimeline,
    LanePlacement,
    RunningJob,
    effective_engine_options,
)
from repro.batch.job import Job
from repro.batch.scheduler import BatchScheduler
from repro.core.budget import Budget
from repro.core.results import OptimizeResult
from repro.engines import resolve_engine
from repro.engines.multi_gpu import CHECKPOINT_REFUSAL
from repro.errors import (
    AdmissionError,
    CheckpointError,
    ConfigurationError,
    InvalidParameterError,
    JournalError,
    ReproError,
    StalledRunError,
)
from repro.io import result_from_dict, result_to_dict
from repro.reliability.checkpoint import CheckpointManager, read_snapshot
from repro.reliability.faults import FaultPlan
from repro.reliability.retry import (
    AttemptLoop,
    RetryPolicy,
    SumLedger,
    as_retry_policy,
)
from repro.reliability.snapshot import (
    RunSnapshot,
    ensure_capturable,
    params_to_spec,
)
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.events import ServiceEvent, events_to_json
from repro.serve.journal import ServiceJournal, job_from_spec, job_to_spec
from repro.serve.quota import TenantQuota
from repro.utils.stats import percentile

__all__ = [
    "JobTicket",
    "OptimizationService",
    "ProgressUpdate",
    "ServiceReport",
]

@dataclass(frozen=True)
class ProgressUpdate:
    """One streamed improvement of a job's best-so-far value.

    Emitted on the first executed iteration and then whenever the global
    best strictly improves, so a consumer sees a monotonically decreasing
    ``best_value`` sequence that reconstructs the solo run's
    ``History.gbest_values`` trace exactly (carry the last value forward
    over unlisted iterations).
    """

    job_id: int
    iteration: int
    best_value: float
    sim_seconds: float


class JobTicket:
    """Handle to one submitted job: status, streaming, result, cancel.

    Tickets are created by :meth:`OptimizationService.submit`; ``job_id``
    is dense and ascending in submission order.  ``status`` is ``"queued"``
    until dispatch, then a terminal engine status (``"completed"``,
    ``"degraded"``, a budget status, …) or ``"shed"`` / ``"cancelled"`` /
    ``"failed"`` / ``"refused"`` (degraded read-only mode).
    """

    def __init__(
        self, service: "OptimizationService", job_id: int, tenant: str, job: Job
    ) -> None:
        self._service = service
        self.job_id = job_id
        self.tenant = tenant
        #: The job as submitted.
        self.job = job
        #: The job actually executed (admission may degrade it).
        self.effective_job = job
        self.arrival = 0.0
        self.priority = job.priority
        self.status = "queued"
        self.admission_action = ""
        self.admission_reason = ""
        self.placement: LanePlacement | None = None
        self.result: OptimizeResult | None = None
        #: Checkpoint file written by a mid-run cancel (resubmit resumes it).
        self.checkpoint_path: Path | None = None
        #: Ticket this job resumed from (checkpoint-backed requeue).
        self.resumed_from: int | None = None
        self.cancel_requested = False
        self._restore_path: Path | None = None
        self._updates: asyncio.Queue = asyncio.Queue()
        self._done = asyncio.Event()

    # -- views ---------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self._done.is_set()

    @property
    def latency_seconds(self) -> float | None:
        """Virtual submit-to-finish latency (``None`` until dispatched)."""
        if self.placement is None:
            return None
        return self.placement.end_seconds - self.arrival

    def to_row(self) -> dict:
        """JSON-safe status row (the ``status`` API and CLI output)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "label": self.job.label,
            "status": self.status,
            "priority": self.priority,
            "arrival": self.arrival,
            "start": (
                self.placement.start_seconds if self.placement else None
            ),
            "end": self.placement.end_seconds if self.placement else None,
            "latency": self.latency_seconds,
            "best_value": (
                float(self.result.best_value)
                if self.result is not None
                else None
            ),
            "admission": self.admission_action,
            "resumed_from": self.resumed_from,
        }

    # -- client actions ------------------------------------------------------
    async def stream(self):
        """Async-iterate :class:`ProgressUpdate`\\ s until the job ends.

        Purely observational: some driver (further ``submit()`` calls,
        ``drain()``, or ``wait()`` from another task) must execute the job.
        A single consumer sees every update; the terminal sentinel is
        re-queued so late iterations terminate immediately.
        """
        while True:
            item = await self._updates.get()
            if item is None:
                self._updates.put_nowait(None)
                return
            yield item

    async def wait(self) -> OptimizeResult | None:
        """Drive the service until this job is terminal; return its result.

        ``None`` for jobs that never produced one (shed, queued-cancel,
        failed).  Unlike :meth:`stream`, ``wait()`` *advances* the
        simulation — it runs every job queued ahead of this one.
        """
        await self._service._finish_job(self)
        return self.result

    def cancel(self) -> bool:
        """Request cancellation (see :meth:`OptimizationService.cancel`)."""
        return self._service.cancel(self.job_id)

    # -- service-side hooks --------------------------------------------------
    def _push(self, update: ProgressUpdate) -> None:
        self._updates.put_nowait(update)

    def _finalize(self) -> None:
        self._updates.put_nowait(None)
        self._done.set()


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate service metrics over everything submitted so far.

    Latency percentiles are nearest-rank over *virtual* submit-to-finish
    latencies of jobs that ran (shed and queued-cancelled jobs have no
    latency; they are counted in ``shed_rate`` / ``counts`` instead).
    ``throughput_per_second`` is finished-jobs per simulated second of
    fleet makespan.  A degenerate window — nothing submitted, or every
    job shed/refused — reports zeroed latencies and throughput (and
    ``shed_rate == 1.0`` when jobs were refused) rather than raising.
    """

    n_jobs: int
    counts: dict
    p50_latency_seconds: float
    p99_latency_seconds: float
    mean_latency_seconds: float
    throughput_per_second: float
    shed_rate: float
    makespan_seconds: float
    devices_provisioned: int
    devices_active: int
    scale_ups: int
    scale_downs: int
    retries: int = 0
    stalled: int = 0

    def to_dict(self) -> dict:
        return {
            "n_jobs": self.n_jobs,
            "counts": dict(self.counts),
            "p50_latency_seconds": self.p50_latency_seconds,
            "p99_latency_seconds": self.p99_latency_seconds,
            "mean_latency_seconds": self.mean_latency_seconds,
            "throughput_per_second": self.throughput_per_second,
            "shed_rate": self.shed_rate,
            "makespan_seconds": self.makespan_seconds,
            "devices_provisioned": self.devices_provisioned,
            "devices_active": self.devices_active,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "retries": self.retries,
            "stalled": self.stalled,
        }

    def summary(self) -> str:
        p50 = (
            f"{self.p50_latency_seconds:.4g}s"
            if self.p50_latency_seconds is not None
            else "n/a"
        )
        p99 = (
            f"{self.p99_latency_seconds:.4g}s"
            if self.p99_latency_seconds is not None
            else "n/a"
        )
        return (
            f"{self.n_jobs} job(s): p50={p50} p99={p99} "
            f"throughput={self.throughput_per_second:.4g}/s "
            f"shed={self.shed_rate:.2%} "
            f"devices={self.devices_active}/{self.devices_provisioned} "
            f"(+{self.scale_ups}/-{self.scale_downs} scaling)"
        )


class _HeldCheckpoints:
    """Checkpoint policy of a journaled job: the newest snapshot stays in
    memory and the step loop journals each one as a ``"checkpoint"``
    record, so the journal holds the only durable copy.

    Stands in for :class:`~repro.reliability.checkpoint.CheckpointManager`
    wherever the engine and the attempt loop use one (``due``, ``save``,
    ``saves``, ``load_latest``); *latest* seeds a crash-resumed job.
    """

    due = CheckpointManager.due

    def __init__(self, every: int, latest: RunSnapshot | None = None) -> None:
        self.every = every
        self.latest = latest
        self.saves = 0

    def save(self, snapshot: RunSnapshot) -> None:
        self.latest = snapshot
        self.saves += 1

    def load_latest(self) -> RunSnapshot | None:
        return self.latest


def _newest_snapshot(records) -> tuple[RunSnapshot | None, dict | None]:
    """The newest readable snapshot among a job's ``"checkpoint"`` records
    (oldest first) and the record it came from, else ``(None, None)``.

    A record carries the snapshot document itself; an older journal's
    record names a checkpoint file by ``"path"`` instead.
    """
    for record in reversed(records):
        try:
            if "snapshot" in record:
                return RunSnapshot.from_payload(record["snapshot"]), record
            if record.get("path") is not None:
                return read_snapshot(record["path"]), record
        except CheckpointError:
            continue  # e.g. a pruned or damaged checkpoint file
    return None, None


def _is_fleet(engine: str) -> bool:
    """Whether *engine* names the multi-GPU fleet.  An unknown name is
    not, and fails at dispatch like any other engine error."""
    try:
        return resolve_engine(engine)[0] == "fastpso-mgpu"
    except InvalidParameterError:
        return False


class OptimizationService:
    """Async front-end serving PSO jobs on the simulated fleet.

    Parameters mirror :class:`~repro.batch.scheduler.BatchScheduler` where
    the concept carries over (``admission``/``max_queue``/
    ``memory_limit_bytes``, ``deadline``, ``budget``, ``breaker``,
    ``guard``, ``graph``), plus the serving-only knobs:

    quotas:
        ``{tenant name: TenantQuota}``; ``default_quota`` applies to
        tenants not in the mapping (unrestricted when ``None``).
    device:
        Catalog device the base fleet runs on — a name/alias resolved
        through :func:`repro.devices.resolve_device` or a ready
        :class:`~repro.gpusim.device.DeviceSpec`.  GPU jobs execute on
        that spec (trajectories unchanged, simulated seconds move) and
        admission prices memory against it.  ``None`` keeps the
        historical flat V100.
    autoscale:
        ``True`` (default policy), an :class:`AutoscalePolicy`, or
        ``None`` for a fixed fleet.  ``n_devices`` is the starting size
        and must lie within the policy's bounds.  A policy with
        ``grow_device`` set provisions *that* catalog entry on scale-up,
        so a burst fleet can differ from the base fleet's silicon.
    checkpoint_dir:
        Directory for cancellation checkpoints — a mid-run cancel
        snapshots the run there, and :meth:`resubmit` resumes it
        bit-identically.  Also the fallback home for retry/watchdog
        checkpoints when no journal is configured.
    stream_stride:
        Iterations between cooperative yields while a job runs (1 =
        every iteration; larger strides run faster but make streaming
        consumers and mid-run cancels coarser).
    journal_dir:
        Directory for the write-ahead journal (see the module docstring's
        durability section).  ``journal_fsync=False`` never fsyncs,
        trading power-loss durability for speed.
    retry:
        An attempt count or a full :class:`~repro.reliability.retry
        .RetryPolicy`; transient failures and watchdog stalls retry from
        the newest checkpoint, degrading to the policy's CPU fallback on
        the final attempt.
    faults:
        A :class:`~repro.reliability.faults.FaultPlan`; each dispatched
        job gets its injector attached (``plan.injector_for(job_id)``).
    watchdog_seconds:
        Progress lease in simulated seconds — an attempt whose clock
        advances more than this between progress marks is declared
        stalled and retried under ``retry``.
    checkpoint_every:
        Iteration cadence of the per-job checkpoints backing retry/watchdog
        recovery and crash resume (journal records when journaled, files
        under ``checkpoint_dir`` otherwise).
    journal_kill_at / journal_kill_mode:
        Deterministic crash harness (tests/CI only): crash — via SIGKILL
        or an in-process :class:`~repro.serve.journal.JournalKillPoint`
        — immediately after the journal record with that sequence number
        is durable.

    Call :meth:`close` when done with a journaled service.
    """

    def __init__(
        self,
        *,
        n_devices: int = 1,
        streams_per_device: int = 4,
        device=None,
        quotas: dict | None = None,
        default_quota: TenantQuota | None = None,
        autoscale: AutoscalePolicy | bool | None = None,
        admission=None,
        max_queue: int | None = None,
        memory_limit_bytes: int | None = None,
        deadline: float | None = None,
        budget: Budget | None = None,
        breaker=None,
        guard=None,
        graph: bool | None = None,
        checkpoint_dir: str | Path | None = None,
        stream_stride: int = 1,
        journal_dir: str | Path | None = None,
        journal_fsync: bool = True,
        retry: RetryPolicy | int | None = None,
        faults: FaultPlan | None = None,
        watchdog_seconds: float | None = None,
        checkpoint_every: int = 10,
        journal_kill_at: int | None = None,
        journal_kill_mode: str = "sigkill",
    ) -> None:
        if n_devices < 1:
            raise InvalidParameterError(
                f"need at least one device, got {n_devices}"
            )
        if streams_per_device < 1:
            raise InvalidParameterError(
                f"need at least one stream per device, got {streams_per_device}"
            )
        if stream_stride < 1:
            raise InvalidParameterError(
                f"stream_stride must be >= 1, got {stream_stride}"
            )
        self.streams_per_device = int(streams_per_device)
        self.stream_stride = int(stream_stride)
        self._base_devices = int(n_devices)

        self.device_spec = None
        if device is not None:
            from repro.devices import resolve_device

            self.device_spec = resolve_device(device)

        if autoscale is True:
            autoscale = AutoscalePolicy()
        elif autoscale is False:
            autoscale = None
        if autoscale is not None and not isinstance(autoscale, AutoscalePolicy):
            raise ConfigurationError(
                "autoscale must be True, None or an AutoscalePolicy, got "
                f"{type(autoscale).__name__}"
            )
        if autoscale is not None and not (
            autoscale.min_devices <= n_devices <= autoscale.max_devices
        ):
            raise ConfigurationError(
                f"n_devices ({n_devices}) must lie within the autoscale "
                f"bounds [{autoscale.min_devices}, {autoscale.max_devices}]"
            )
        self._autoscaler = (
            Autoscaler(autoscale) if autoscale is not None else None
        )
        # The spec scale-up provisions (resolved once, bad names fail
        # loudly here); None = grown devices match the base fleet.
        self._grow_spec = (
            autoscale.resolved_grow_spec() if autoscale is not None else None
        )

        self.quotas = dict(quotas or {})
        for tenant, quota in self.quotas.items():
            if not isinstance(quota, TenantQuota):
                raise ConfigurationError(
                    f"quota for tenant {tenant!r} must be a TenantQuota, "
                    f"got {type(quota).__name__}"
                )
        if default_quota is not None and not isinstance(
            default_quota, TenantQuota
        ):
            raise ConfigurationError(
                "default_quota must be a TenantQuota, got "
                f"{type(default_quota).__name__}"
            )
        self.default_quota = default_quota or TenantQuota()

        self.admission = BatchScheduler._build_admission(
            admission, max_queue=max_queue, memory_limit_bytes=memory_limit_bytes
        )
        BatchScheduler._check_limits(deadline, budget, guard)
        self.deadline, self.budget, self.guard = deadline, budget, guard
        self.graph = graph
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )

        self.retry = as_retry_policy(retry)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise InvalidParameterError(
                f"faults must be a FaultPlan, got {type(faults).__name__}"
            )
        self.faults = faults
        if watchdog_seconds is not None and not watchdog_seconds > 0:
            raise InvalidParameterError(
                "watchdog_seconds must be positive simulated seconds, got "
                f"{watchdog_seconds!r}"
            )
        self.watchdog_seconds = watchdog_seconds
        if checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)

        breaker_policy = BatchScheduler._build_breaker(breaker)
        self._health = None
        if breaker_policy is not None:
            from repro.reliability.breaker import FleetHealth

            # Grows with the fleet: _apply adds a breaker on each scale_up.
            self._health = FleetHealth(n_devices, policy=breaker_policy)

        self._timeline = FleetTimeline(
            n_devices, streams_per_device=streams_per_device
        )
        self._tickets: list[JobTicket] = []
        self._pending: list[JobTicket] = []
        self._now = 0.0
        self._events: list[ServiceEvent] = []
        self._lock = asyncio.Lock()

        #: Structured refusal rows recorded in degraded read-only mode.
        self.refusals: list[dict] = []
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._journal: ServiceJournal | None = None
        self._read_only = False
        self._journal_error_row: dict | None = None
        #: Crash-resume state per job id (built by :meth:`recover`).
        self._resume: dict[int, dict] = {}
        #: Arrival of the last journaled admitted submit (set by
        #: :meth:`recover`): its closing dispatch pass may have been cut off.
        self._owed_pass_at: float | None = None
        if self.journal_dir is not None:
            try:
                self._journal = ServiceJournal(
                    self.journal_dir,
                    fsync=journal_fsync,
                    kill_at=journal_kill_at,
                    kill_mode=journal_kill_mode,
                )
            except OSError as exc:
                self._enter_read_only(exc)

    # -- introspection -------------------------------------------------------
    @property
    def events(self) -> tuple[ServiceEvent, ...]:
        """The decision log (see :mod:`repro.serve.events`)."""
        return tuple(self._events)

    def events_json(self) -> str:
        """Canonical JSON event log (what the CI drill byte-compares)."""
        return events_to_json(self._events)

    @property
    def now(self) -> float:
        """Latest known virtual arrival time."""
        return self._now

    @property
    def n_devices(self) -> int:
        """Devices ever provisioned (retired ones included)."""
        return self._timeline.n_devices

    @property
    def active_devices(self) -> tuple[int, ...]:
        return self._timeline.active_devices

    @property
    def read_only(self) -> bool:
        """Whether the service is in degraded read-only mode (dead journal)."""
        return self._read_only

    @property
    def journal_error(self) -> dict | None:
        """Structured error row describing why the journal died, if it did."""
        return dict(self._journal_error_row) if self._journal_error_row else None

    def status(self, job_id: int | None = None):
        """One job's status row, or every job's (submission order)."""
        if job_id is not None:
            return self._get_ticket(job_id).to_row()
        return [ticket.to_row() for ticket in self._tickets]

    def _get_ticket(self, job_id: int) -> JobTicket:
        if not 0 <= job_id < len(self._tickets):
            raise InvalidParameterError(
                f"unknown job id {job_id} "
                f"({len(self._tickets)} job(s) submitted)"
            )
        return self._tickets[job_id]

    def _quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    # -- journaling ----------------------------------------------------------
    def _enter_read_only(self, exc: OSError) -> None:
        """Degrade to read-only mode: the journal can no longer be trusted."""
        self._read_only = True
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        error = JournalError(
            f"journal directory {self.journal_dir} is unwritable: {exc}"
        )
        self._journal_error_row = error.to_row()

    def _journal_append(self, record: dict) -> None:
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError as exc:
            self._enter_read_only(exc)

    def _commit(self) -> None:
        """Group commit: make every appended record durable before
        control returns to a caller (see the module docstring)."""
        if self._journal is None:
            return
        try:
            self._journal.commit()
        except OSError as exc:
            self._enter_read_only(exc)

    def close(self) -> None:
        """Commit the journal and close its file: the last call on a
        journaled service."""
        self._commit()
        if self._journal is not None:
            self._journal.close()

    def _emit(
        self, kind: str, *, time: float, ticket=None, _job_id=None,
        _tenant=None, _extra=None, _job=None, _result=None, _duration=None,
        _lane=None, _resumed_from=None, **detail,
    ) -> None:
        """Journal one transition, apply it, then log it.

        *ticket* (or ``_job_id``/``_tenant`` for a ticket the event
        creates) names the job; ``_extra`` is the journal-only payload;
        ``_job`` … ``_resumed_from`` are the live inputs :meth:`_apply`
        would otherwise decode from that payload.
        """
        if ticket is not None:
            _job_id, _tenant = ticket.job_id, ticket.tenant
        event = ServiceEvent(
            ordinal=len(self._events),
            time=float(time),
            kind=kind,
            job_id=_job_id,
            tenant=_tenant,
            detail=detail,
        )
        # Write-ahead: the transition is durable before it takes effect.
        record: dict = {"type": "event", "event": event.to_row()}
        if _extra:
            record["extra"] = _extra
        self._journal_append(record)
        self._apply(
            event, job=_job, result=_result, duration=_duration, lane=_lane,
            resumed_from=_resumed_from,
        )
        self._events.append(event)

    def _apply(
        self,
        event: ServiceEvent,
        *,
        job: Job | None = None,
        result: OptimizeResult | None = None,
        duration: float | None = None,
        lane: tuple[int, int, float] | None = None,
        resumed_from: int | None = None,
    ) -> None:
        """The one transition function for every event kind.

        Applies *event* to the tickets, the queue, the fleet timeline and
        the breaker fleet.  Live code reaches it through :meth:`_emit`,
        right after the record is journaled; crash recovery feeds it each
        journaled event, decoded.  The inputs an event row does not carry
        come alongside: the submitted or degraded *job* (``None`` when its
        spec could not be journaled), the terminal *result*, the exact
        committed *duration* and the reserved *lane* ``(device, stream,
        start)``.
        """
        kind, detail = event.kind, event.detail
        if kind in ("submit", "refused"):
            if job is None:
                # The crashed service could not serialize this job; the
                # stub keeps ids/counters aligned but cannot be re-run.
                stub = Job(problem="sphere", dim=1, name=detail.get("label"))
            ticket = JobTicket(
                self, event.job_id, event.tenant,
                job if job is not None else stub,
            )
            ticket._recoverable = job is not None
            ticket.arrival = event.time
            ticket.priority = self._quota_for(event.tenant).job_priority(
                ticket.job.priority
            )
            # A refusal's detail does not carry the resume link.
            ticket.resumed_from = detail.get("resumed_from", resumed_from)
            if "restore" in detail:
                ticket._restore_path = Path(detail["restore"])
            self._tickets.append(ticket)
            self._now = max(self._now, event.time)
            if kind == "refused":
                ticket.status = ticket.admission_action = "refused"
                ticket.admission_reason = detail["reason"]
                ticket._finalize()
        elif kind == "scale_up":
            self._timeline.add_device(at=detail["lanes_open_at"])
            if self._health is not None:
                self._health.add_device()
        elif kind == "scale_down":
            self._timeline.retire_device(detail["device"])
        elif kind in ("admit", "degrade", "shed"):
            ticket = self._tickets[event.job_id]
            ticket.admission_action = kind
            if kind == "admit":
                # Admission's only admit reason; the record carries none.
                ticket.admission_reason = (
                    ADMIT_REASON if self.admission is not None else ""
                )
                return
            ticket.admission_reason = detail["reason"]
            if kind == "shed":
                ticket.status = "shed"
                ticket._finalize()
            elif job is not None:
                ticket.effective_job = job
            else:
                ticket._recoverable = False
        elif kind == "dispatch":
            self._tickets[event.job_id].status = "running"
        elif kind == "cancel" and detail["phase"] == "queued":
            ticket = self._tickets[event.job_id]
            if ticket in self._pending:  # replay re-queues after the log
                self._pending.remove(ticket)
            ticket.status = "cancelled"
            ticket._finalize()
        elif kind in ("complete", "failed", "cancel"):
            ticket = self._tickets[event.job_id]
            device, stream, start = lane
            ticket.placement = self._timeline.commit(
                device, stream, start, duration
            )
            ticket.result = result
            if kind == "cancel":
                ticket.status = "cancelled"
                if detail["checkpoint"] is not None:
                    ticket.checkpoint_path = Path(detail["checkpoint"])
            else:
                ticket.status = (
                    "failed" if kind == "failed" else detail["status"]
                )
            ticket._finalize()
        # "stalled" and "retry" change no ticket, queue or fleet state.

    def _enqueue(self, ticket: JobTicket) -> None:
        """Queue *ticket* in dispatch order: priority, then submission."""
        bisect.insort(
            self._pending, ticket, key=lambda t: (-t.priority, t.job_id)
        )

    # -- submission ----------------------------------------------------------
    async def submit(
        self,
        job: Job | None = None,
        /,
        *,
        tenant: str = "default",
        at: float | None = None,
        restore: str | Path | None = None,
        _resumed_from: int | None = None,
        **spec: object,
    ) -> JobTicket:
        """Submit a job arriving at virtual second *at* (default: now).

        Accepts a ready :class:`~repro.batch.job.Job` or its field values
        as keywords.  Arrivals must be non-decreasing — the service is a
        discrete-event simulation and cannot rewrite history.  *restore*
        resumes a cancellation checkpoint file (see :meth:`resubmit`).

        The returned :class:`JobTicket` may already be terminal: quota or
        admission refusals shed synchronously (``status == "shed"``; in
        strict admission mode an :class:`~repro.errors.AdmissionError` is
        raised instead), a read-only service refuses synchronously
        (``status == "refused"``), and a job the idle fleet can run
        immediately is executed before ``submit`` returns.
        """
        if job is None:
            job = Job(**spec)  # type: ignore[arg-type]
        elif spec:
            raise InvalidParameterError(
                "pass either a Job or keyword fields, not both"
            )
        if not isinstance(job, Job):
            raise InvalidParameterError(
                f"expected a Job, got {type(job).__name__}"
            )
        arrival = self._now if at is None else float(at)
        if arrival < self._now:
            raise InvalidParameterError(
                f"arrivals must be non-decreasing: at={arrival} precedes "
                f"the service clock {self._now}"
            )
        if _is_fleet(job.engine) and self._checkpoints(job):
            # Refused before anything is journaled or a lane reserved: the
            # fleet's start_run would refuse the checkpoints at dispatch.
            raise InvalidParameterError(CHECKPOINT_REFUSAL)
        try:
            return await self._arrive(
                job, tenant, arrival, restore, _resumed_from
            )
        finally:
            # Acked => durable, on every path: sheds, refusals and the
            # strict-mode AdmissionError included.
            self._commit()

    async def _arrive(
        self,
        job: Job,
        tenant: str,
        arrival: float,
        restore: str | Path | None,
        resumed_from: int | None,
    ) -> JobTicket:
        """The body of :meth:`submit`: everything an arrival journals."""
        if self._read_only:
            return self._refuse(job, tenant, arrival, resumed_from)

        # Run everything that starts strictly before this arrival, so the
        # queue the new job sees (and quota/admission/autoscale decisions)
        # reflect the fleet state at its arrival instant.
        await self._advance(arrival, exclusive=True)
        self._now = arrival
        if self._read_only:
            # The journal died while earlier work was being dispatched.
            return self._refuse(job, tenant, arrival, resumed_from)

        submit_detail: dict = {"label": job.label}
        if restore is not None:
            submit_detail["restore"] = str(restore)
        if resumed_from is not None:
            submit_detail["resumed_from"] = resumed_from
        submit_extra = None
        if self._journal is not None:
            submit_extra = {"job": job_to_spec(job)}
        self._emit(
            "submit", time=arrival, _job_id=len(self._tickets),
            _tenant=tenant, _extra=submit_extra, _job=job, **submit_detail,
        )
        ticket = self._tickets[-1]
        if not self._admission_verdict(ticket):
            return ticket

        # Autoscaler observation: the queue as this arrival finds it (the
        # new job is not yet counted — idle streaks would otherwise never
        # accumulate under sparse arrivals).
        self._autoscale_tick(now=arrival)
        self._enqueue(ticket)

        # Eagerly run whatever can start at this instant (an idle fleet
        # serves the job before submit() returns).
        await self._advance(arrival)
        return ticket

    def _admission_verdict(self, ticket: JobTicket) -> bool:
        """Run quota + admission for *ticket*, emitting the verdict event.

        Returns whether the ticket remains queued.  Shared by ``submit()``
        and crash recovery: a crash between the journaled submit and its
        verdict resumes here, and the recomputation is deterministic, so
        the recovered verdict matches the one the uninterrupted run made.
        Raises :class:`~repro.errors.AdmissionError` in strict mode (after
        recording the shed).
        """
        arrival = ticket.arrival
        refusal = self._quota_refusal(ticket, self._quota_for(ticket.tenant))
        if refusal is not None:
            self._shed(ticket, refusal, source="quota")
            return False
        if self.admission is None:
            self._emit("admit", time=arrival, ticket=ticket)
            return True
        try:
            decision = self.admission.admit_one(
                ticket.job,
                submit_order=ticket.job_id,
                streams_per_device=self.streams_per_device,
                device_mem_bytes=self._device_mem_bytes(),
                queue_depth=len(self._pending),
            )
        except AdmissionError:
            # Strict mode refuses loudly; the shed still goes on the
            # record so replayed logs show the refusal.
            self._shed(ticket, "strict admission refusal", source="admission")
            raise
        if decision.action == "shed":
            self._shed(ticket, decision.reason, source="admission")
            return False
        if decision.action == "degrade":
            degrade_extra = None
            if self._journal is not None:
                degrade_extra = {"job": job_to_spec(decision.job)}
            self._emit(
                "degrade",
                time=arrival,
                ticket=ticket,
                _extra=degrade_extra,
                _job=decision.job,
                reason=decision.reason,
                n_particles=decision.job.n_particles,
            )
        else:
            self._emit("admit", time=arrival, ticket=ticket)
        return True

    def _refuse(
        self, job: Job, tenant: str, arrival: float, resumed_from: int | None
    ) -> JobTicket:
        """Refuse a submission in degraded read-only mode."""
        row = dict(self._journal_error_row or {})
        row["job"] = job.label
        self.refusals.append(row)
        # The journal is the thing that broke, so the refusal itself
        # cannot be journaled: this event is memory-only by design.
        self._emit(
            "refused",
            time=arrival,
            _job_id=len(self._tickets),
            _tenant=tenant,
            _job=job,
            _resumed_from=resumed_from,
            reason=row.get("message", "journal unwritable"),
            error=row.get("error"),
        )
        return self._tickets[-1]

    async def resubmit(
        self, job_id: int, *, at: float | None = None
    ) -> JobTicket:
        """Requeue a cancelled job from its cancellation checkpoint.

        The new ticket resumes the run bit-identically from the iteration
        the cancel captured (same effective job, same tenant); its
        ``resumed_from`` points back at *job_id*.
        """
        old = self._get_ticket(job_id)
        if old.status != "cancelled" or old.checkpoint_path is None:
            raise InvalidParameterError(
                f"job {job_id} has no cancellation checkpoint to resume "
                f"(status {old.status!r})"
            )
        return await self.submit(
            old.effective_job,
            tenant=old.tenant,
            at=at,
            restore=old.checkpoint_path,
            _resumed_from=job_id,
        )

    def _device_mem_bytes(self) -> int:
        from repro.gpusim.device import tesla_v100

        base = self.device_spec or tesla_v100()
        if self._grow_spec is not None:
            # A job must fit wherever dispatch lands it, grown devices
            # included, so admission prices against the smaller memory.
            return min(base.global_mem_bytes, self._grow_spec.global_mem_bytes)
        return base.global_mem_bytes

    def _spec_for_device(self, device: int):
        """The catalog spec device *device* runs jobs on (``None`` =
        the engine's own default, the historical flat V100)."""
        if self._grow_spec is not None and device >= self._base_devices:
            return self._grow_spec
        return self.device_spec

    def _quota_refusal(
        self, ticket: JobTicket, quota: TenantQuota
    ) -> str | None:
        """Why the tenant's quota refuses this arrival, or ``None``."""
        if quota.max_queued is not None:
            queued = sum(
                1 for t in self._pending if t.tenant == ticket.tenant
            )
            if queued >= quota.max_queued:
                return (
                    f"tenant {ticket.tenant!r} queued-job quota "
                    f"{quota.max_queued} reached"
                )
        if quota.max_active is not None:
            active = 0
            for t in self._tickets:
                if t is ticket or t.tenant != ticket.tenant:
                    continue
                if t.status == "queued":
                    active += 1
                elif (
                    t.placement is not None
                    and t.placement.end_seconds > ticket.arrival
                ):
                    # Dispatched but still occupying its lane at this
                    # arrival's virtual instant.
                    active += 1
            if active >= quota.max_active:
                return (
                    f"tenant {ticket.tenant!r} active-job quota "
                    f"{quota.max_active} reached"
                )
        return None

    def _shed(self, ticket: JobTicket, reason: str, *, source: str) -> None:
        """Record a shed; strict admission also refuses a quota shed loudly."""
        self._emit(
            "shed", time=ticket.arrival, ticket=ticket, reason=reason,
            source=source,
        )
        mode = self.admission.mode if self.admission is not None else "degrade"
        if source == "quota" and mode == "strict":
            raise AdmissionError(
                f"job {ticket.job.label!r} refused admission: {reason}"
            ).with_context(job=ticket.job.label)

    # -- cancellation --------------------------------------------------------
    def cancel(self, job_id: int) -> bool:
        """Cancel a job; returns whether the request took effect.

        Queued jobs leave the queue immediately (terminal ``"cancelled"``,
        no lane time, like a shed row).  Running jobs are flagged; the run
        stops at its next cooperative yield with a ``"cancelled"`` result
        carrying the best-so-far answer — and, when the service has a
        ``checkpoint_dir``, a resume checkpoint (see :meth:`resubmit`).
        If the run completes before noticing the flag, it stays completed.
        Terminal jobs return ``False`` (cancel-after-completion is a
        no-op).
        """
        ticket = self._get_ticket(job_id)
        if ticket.status == "queued":
            self._emit("cancel", time=self._now, ticket=ticket, phase="queued")
            self._commit()
            return True
        if ticket.status == "running":
            ticket.cancel_requested = True
            return True
        return False

    # -- driving the simulation ----------------------------------------------
    async def drain(self) -> None:
        """Run every queued job to completion.

        Declares "no further arrivals": the service clock jumps to the
        fleet makespan, so later submissions must arrive after everything
        that drained.
        """
        try:
            await self._advance(math.inf)
        finally:
            self._commit()
        self._now = max(self._now, self._timeline.makespan_seconds)

    async def _finish_job(self, ticket: JobTicket) -> None:
        """Drive until *ticket* is terminal (:meth:`JobTicket.wait`)."""
        try:
            while not ticket._done.is_set():
                await self._advance(math.inf, until=ticket)
        finally:
            self._commit()

    async def _advance(
        self, t: float, *, exclusive: bool = False, until=None
    ) -> None:
        """Dispatch pending jobs whose start time is within *t*.

        Priority order (submission order breaking ties); each dispatched
        job is host-executed to its terminal state before the next starts.
        *exclusive* stops at jobs starting exactly at *t* (used just
        before enqueueing an arrival at *t*, which may overtake them);
        *until* stops as soon as that ticket turns terminal.
        """
        if exclusive and t == self._owed_pass_at:
            # Recovered service: redo the last submit's closing pass at
            # this instant before the new arrival can overtake its jobs.
            exclusive = False
        async with self._lock:
            # Crash-resumed in-flight jobs first: pre-crash they were
            # already executing, so their remaining events precede any
            # new dispatch decision — exactly the uninterrupted order.
            while self._resume:
                job_id = next(iter(self._resume))
                await self._execute(
                    self._tickets[job_id], *self._resume[job_id]["lane"]
                )
            while self._pending:
                if until is not None and until._done.is_set():
                    return
                ticket = self._pending[0]
                probe = self._timeline.earliest_start(
                    not_before=ticket.arrival
                )
                devices = self._allowed_devices(now=probe)
                device, stream, start = self._timeline.reserve(
                    not_before=ticket.arrival, devices=devices
                )
                if start >= t if exclusive else start > t:
                    return
                self._pending.pop(0)
                await self._execute(ticket, device, stream, start)

    def _allowed_devices(self, *, now: float):
        """Breaker-admitted active devices (``None`` = no restriction)."""
        if self._health is None:
            return None
        active = self._timeline.active_devices
        allowed = tuple(
            d for d in active if self._health.breakers[d].allows(now)
        )
        # Every breaker open: place anywhere rather than deadlock the
        # queue — the breaker log still records the open state.
        return allowed or None

    # -- execution -----------------------------------------------------------
    def _checkpoints(self, job: Job) -> bool:
        """Whether *job*'s runs take mid-run checkpoints: on a journaled
        service, or with retry or a watchdog and a ``checkpoint_dir``, if
        the job can be captured."""
        if self._journal is None and not (
            (self.retry is not None or self.watchdog_seconds is not None)
            and self.checkpoint_dir is not None
        ):
            return False
        try:
            ensure_capturable(job.resolved_problem())
            params_to_spec(job.resolved_params)
        except CheckpointError:
            return False
        return True

    def _checkpoint_manager_for(
        self, ticket: JobTicket, job: Job, latest: RunSnapshot | None
    ) -> CheckpointManager | _HeldCheckpoints | None:
        """The per-job checkpoints backing retry/crash recovery.

        Journaled, the snapshots are held in memory and journaled as
        records (*latest* seeds a crash-resumed job); otherwise, with
        retry or a watchdog, they are files under ``checkpoint_dir``.
        ``None`` when nothing needs mid-run checkpoints, when there is
        nowhere durable to put them, or when the job cannot be captured
        (custom problems/schedules keep their legacy no-checkpoint path).
        """
        if not self._checkpoints(job):
            return None
        if self._journal is not None:
            return _HeldCheckpoints(self.checkpoint_every, latest)
        label = f"job{ticket.job_id:06d}"
        try:
            return CheckpointManager(
                self.checkpoint_dir / label,
                every=self.checkpoint_every,
                keep=3,
                label=label,
            )
        except CheckpointError:
            return None

    def _journal_checkpoint(
        self, ticket: JobTicket, run: RunningJob, manager, injector
    ) -> None:
        if self._journal is None:
            return
        self._journal_append(
            {
                "type": "checkpoint",
                "job_id": ticket.job_id,
                "iteration": run.iterations_run,
                "snapshot": manager.latest.to_payload(),
                "clock_now": float(run.engine.clock.now),
                "injector": (
                    injector.state_dict() if injector is not None else None
                ),
            }
        )

    async def _execute(
        self, ticket: JobTicket, device: int, stream: int, start: float
    ) -> None:
        """Host-run one dispatched job and commit it to the timeline.

        Attempts come from the shared :class:`~repro.reliability.retry
        .AttemptLoop`, pinned to the reserved lane: engine choice, restore,
        CPU failover and the price of a failure all live there.  This host
        owns the step loop — cancel, progress streaming, journaling,
        checkpoint records, the watchdog lease and cooperative yields — and
        journals every transition before it takes effect.
        """
        job = ticket.effective_job
        resume = self._resume.pop(ticket.job_id, None)
        if resume is None:
            self._emit(
                "dispatch",
                time=start,
                ticket=ticket,
                device=device,
                stream=stream,
                queue_wait=start - ticket.arrival,
            )
        quota = self._quota_for(ticket.tenant)
        deadline = (
            Budget(wall_seconds=self.deadline)
            if self.deadline is not None
            else None
        )
        budget = Budget.merge_all(
            job.budget, quota.budget, self.budget, deadline
        )

        injector = (
            self.faults.injector_for(ticket.job_id, job.label)
            if self.faults is not None
            else None
        )
        # The injector state recovery found for a crash-resumed job.  A
        # retry record's state is where the next attempt starts counting.
        # A checkpoint record's state is where the uninterrupted run
        # stood, so it is applied again once the restore (which launches
        # the init kernels once more) is done.
        reload = None
        if injector is not None and resume is not None:
            state = resume["injector"]
            if state is not None:
                injector.load_state(state)
                if resume["from_checkpoint"]:
                    reload = state
        skip_stalled = bool(resume and resume["skip_stalled"])
        manager = self._checkpoint_manager_for(
            ticket, job, resume["snapshot"] if resume is not None else None
        )
        lease = self.watchdog_seconds
        loop = AttemptLoop(
            job,
            policy=self.retry,
            ledger=SumLedger(
                start, resume["overhead"] if resume is not None else 0.0
            ),
            options_for=lambda j: effective_engine_options(j, self.graph),
            spec_for=self._spec_for_device,
            injector=injector,
            checkpoint=manager,
            budget=budget,
            guard=self.guard,
            health=self._health,
            lane=device,
            resume_from=ticket._restore_path,
            label=job.label,
            attempt=resume["attempt"] if resume is not None else 1,
        )

        while True:
            run = None
            failure: ReproError | None = None
            cancelled = stalled = False
            try:
                run = loop.start()
                if reload is not None:
                    injector.load_state(reload)
            except ReproError as exc:
                failure = exc
            reload = None

            if run is not None:
                saves_seen = manager.saves if manager is not None else 0
                last_mark = float(run.engine.clock.now)
                emitted = False
                last = math.inf
                since_yield = 0
                try:
                    for t in range(run.start_iter, run.max_iter):
                        if ticket.cancel_requested:
                            cancelled = True
                            break
                        stopping = run.step(t)
                        now_sim = float(run.engine.clock.now)
                        value = run.gbest_value
                        if not emitted or value < last:
                            ticket._push(
                                ProgressUpdate(
                                    job_id=ticket.job_id,
                                    iteration=t,
                                    best_value=value,
                                    sim_seconds=now_sim,
                                )
                            )
                            self._journal_append(
                                {
                                    "type": "progress",
                                    "job_id": ticket.job_id,
                                    "iteration": t,
                                    "best_value": value,
                                    "sim_seconds": now_sim,
                                }
                            )
                            last = value
                            emitted = True
                        if manager is not None and manager.saves > saves_seen:
                            saves_seen = manager.saves
                            self._journal_checkpoint(
                                ticket, run, manager, injector
                            )
                        if lease is not None and now_sim - last_mark > lease:
                            stalled = True
                            break
                        last_mark = now_sim
                        if stopping:
                            break
                        since_yield += 1
                        if since_yield >= self.stream_stride:
                            since_yield = 0
                            # Cooperative yield: streaming consumers observe
                            # the update and may cancel before the next
                            # iteration.
                            await asyncio.sleep(0)
                except ReproError as exc:
                    failure = exc

            if failure is None and not stalled:
                checkpoint = None
                if cancelled:
                    checkpoint = self._checkpoint_cancelled(ticket, run)
                result = run.finish(status="cancelled" if cancelled else None)
                loop.succeeded(result)
                self._complete(
                    ticket, (device, stream, start), loop.ledger.overhead,
                    result, cancelled=cancelled, checkpoint=checkpoint,
                    attempt=loop.attempt, on_cpu=loop.on_cpu,
                )
                return

            # The attempt failed (contained error) or outlived its lease.
            fail_sim = float(run.engine.clock.now) if run is not None else 0.0
            overhead = loop.ledger.overhead
            fail_time = start + overhead + fail_sim
            if stalled:
                failure = StalledRunError(
                    f"watchdog lease expired: {fail_sim - last_mark:.6g}s "
                    f"simulated since the last progress mark "
                    f"(lease {lease:g}s)"
                )
            attempt = loop.attempt
            retrying = loop.failed(failure, stalled=stalled)
            error_text = f"{type(failure).__name__}: {failure}"
            if stalled and not skip_stalled:
                self._emit(
                    "stalled",
                    time=fail_time,
                    ticket=ticket,
                    attempt=attempt,
                    lease=lease,
                    error=error_text,
                )
            skip_stalled = False
            if not retrying:
                detail = {"error": error_text}
                if attempt > 1:
                    detail["attempts"] = attempt
                self._finish(
                    "failed", ticket, (device, stream, start),
                    overhead + fail_sim, detail,
                )
                return
            retry_extra = None
            if self._journal is not None:
                retry_extra = {
                    "overhead": loop.ledger.overhead,
                    "injector": (
                        injector.state_dict() if injector is not None else None
                    ),
                }
            self._emit(
                "retry",
                time=fail_time,
                ticket=ticket,
                _extra=retry_extra,
                attempt=attempt,
                error=error_text,
                lost_seconds=loop.lost,
                backoff_seconds=loop.backoff,
            )

    def _checkpoint_cancelled(
        self, ticket: JobTicket, run: RunningJob
    ) -> Path | None:
        """Snapshot a mid-run cancel so :meth:`resubmit` can resume it."""
        if self.checkpoint_dir is None or run.iterations_run == 0:
            return None
        try:
            snapshot = run.snapshot()
        except CheckpointError:
            # Custom-objective problems cannot be rebuilt from a snapshot
            # document; the cancel still returns the best-so-far result.
            return None
        manager = CheckpointManager(
            self.checkpoint_dir / f"job{ticket.job_id:06d}",
            label=f"job{ticket.job_id:06d}",
        )
        return manager.save(snapshot)

    def _complete(
        self,
        ticket: JobTicket,
        lane: tuple[int, int, float],
        overhead: float,
        result: OptimizeResult,
        *,
        cancelled: bool,
        checkpoint: Path | None,
        attempt: int,
        on_cpu: bool,
    ) -> None:
        """Commit a terminal result (recovery overhead included) and emit."""
        duration = overhead + result.elapsed_seconds
        if cancelled:
            detail: dict = {
                "phase": "running",
                "iterations": result.iterations,
                "best_value": float(result.best_value),
                "checkpoint": (
                    str(checkpoint) if checkpoint is not None else None
                ),
            }
        else:
            degraded = (
                ticket.admission_action == "degrade"
                and result.status == "completed"
            )
            detail = {
                "status": "degraded" if degraded else result.status,
                "best_value": float(result.best_value),
                "iterations": result.iterations,
                "latency": lane[2] + duration - ticket.arrival,
            }
            if attempt > 1:
                detail["attempts"] = attempt
        if on_cpu:
            detail["cpu_fallback"] = True
        self._finish(
            "cancel" if cancelled else "complete",
            ticket, lane, duration, detail, result=result,
        )

    def _finish(
        self,
        kind: str,
        ticket: JobTicket,
        lane: tuple[int, int, float],
        duration: float,
        detail: dict,
        *,
        result: OptimizeResult | None = None,
    ) -> None:
        """Emit a terminal event at its lane's end, then observe the fleet."""
        # start + duration is the very float FleetTimeline.commit produces.
        end = lane[2] + duration
        extra = None
        if self._journal is not None:
            # The exact committed duration rides along: IEEE addition is
            # not associative, so replay must commit the same float the
            # live run did, not recompute it from parts.
            extra = {"duration": duration}
            if result is not None:
                extra["result"] = result_to_dict(result)
        self._emit(
            kind, time=end, ticket=ticket, _extra=extra, _result=result,
            _duration=duration, _lane=lane, **detail,
        )
        self._autoscale_tick(now=end)

    # -- autoscaling ---------------------------------------------------------
    def _autoscale_tick(self, *, now: float) -> None:
        if self._autoscaler is None:
            return
        active = self._timeline.active_devices
        victim = self._shrink_victim(now=now, active=active)
        self._journal_append(
            {
                "type": "scale_obs",
                "now": now,
                "queue_depth": len(self._pending),
                "n_active": len(active),
                "can_shrink": victim is not None,
            }
        )
        decision = self._autoscaler.observe(
            now=now,
            queue_depth=len(self._pending),
            n_active=len(active),
            can_shrink=victim is not None,
        )
        if decision is None:
            return
        self._apply_scale(
            decision,
            now=now,
            queue_depth=len(self._pending),
            n_active=len(active),
            victim=victim,
        )

    def _apply_scale(
        self, decision, *, now: float, queue_depth: int, n_active: int, victim
    ) -> None:
        action, reason = decision
        if action == "up":
            boot_at = now + self._autoscaler.policy.boot_seconds
            self._emit(
                "scale_up",
                time=now,
                device=self._timeline.n_devices,
                lanes_open_at=boot_at,
                queue_depth=queue_depth,
                active_devices=n_active,
                reason=reason,
            )
        else:
            self._emit(
                "scale_down",
                time=now,
                device=victim,
                active_devices=n_active - 1,
                reason=reason,
            )

    def _shrink_victim(self, *, now: float, active) -> int | None:
        """Highest-indexed device that is idle at *now*, if shrinkable."""
        if self._autoscaler is None:
            return None
        if len(active) <= self._autoscaler.policy.min_devices:
            return None
        for device in reversed(active):
            if self._timeline.device_idle(device, now=now):
                return device
        return None

    # -- crash recovery ------------------------------------------------------
    @classmethod
    def recover(cls, journal_dir: str | Path, **kwargs) -> "OptimizationService":
        """Rebuild a service from its write-ahead journal after a crash.

        *kwargs* must be the same configuration the crashed service ran
        with (quotas, autoscale policy, retry, faults, …) — the journal
        records decisions, not configuration.  Replaying restores every
        ticket and event verbatim, re-commits the fleet timeline and
        breaker history, re-queues still-pending tickets in their
        original order, and stages the in-flight job (if any) for
        bit-identical resume from its newest checkpoint record on the
        next ``submit()``/``drain()``.  Everything replay journals is
        committed before this returns.  Raises
        :class:`~repro.errors.JournalError` when the journal cannot be
        opened for append (recovery must be able to continue the log).
        """
        kwargs.pop("journal_dir", None)
        service = cls(journal_dir=journal_dir, **kwargs)
        if service._journal is None:
            row = service._journal_error_row or {}
            raise JournalError(
                row.get("message")
                or f"cannot open journal in {journal_dir} for recovery"
            )
        service._replay_journal()
        service._commit()
        return service

    def _replay_journal(self) -> None:
        """Apply every surviving journal record to the fresh service.

        Each journaled event is decoded and fed through :meth:`_apply`, the
        same transition function the live service runs, so recovered and
        live state cannot drift apart.  What only recovery needs stays
        here: the in-flight lanes, retry attempts and overhead, the newest
        checkpoint record (snapshot and fault injector state from one
        record) and the breaker outcomes (live, the attempt loop records
        those at the same event times).

        ``submit()`` is a multi-record transaction (submit, verdict,
        autoscale observation); a crash can land between any two of its
        records.  Replay detects a transaction cut short mid-way — a
        ticket whose verdict or autoscale tick never reached the journal,
        or an autoscale observation whose decided scale event did not —
        and resumes it deterministically, so the recovered event log
        continues exactly where the uninterrupted one would be.
        """
        records = self._journal.existing_records
        health = self._health
        inflight: dict[int, tuple[int, int, float]] = {}
        retried: dict[int, dict] = {}
        checkpoints: dict[int, list[dict]] = {}
        tail_needs_tick = False
        stall_tail_job = None
        for i, record in enumerate(records):
            kind = record.get("type")
            if kind == "event":
                event = ServiceEvent.from_row(record["event"])
                extra = record.get("extra") or {}
                job_id, detail = event.job_id, event.detail
                spec = extra.get("job")
                lane = None
                if event.kind in ("complete", "failed", "cancel"):
                    lane = inflight.pop(job_id, None)  # None: queued cancel
                self._apply(
                    event,
                    job=job_from_spec(spec) if spec is not None else None,
                    result=(
                        result_from_dict(extra["result"])
                        if "result" in extra
                        else None
                    ),
                    duration=extra.get("duration"),
                    lane=lane,
                )
                self._events.append(event)
                if event.kind == "dispatch":
                    inflight[job_id] = (
                        detail["device"], detail["stream"], event.time
                    )
                elif event.kind == "retry":
                    retried[job_id] = {
                        "attempt": detail["attempt"],
                        "overhead": extra["overhead"],
                        "injector": extra.get("injector"),
                        "seq": record["seq"],
                    }
                    if health is not None:
                        health.record_failure(
                            inflight[job_id][0], now=event.time
                        )
                elif lane is not None and health is not None:
                    if event.kind == "failed":
                        health.record_failure(lane[0], now=event.time)
                    elif not detail.get("cpu_fallback"):
                        health.record_success(lane[0], now=event.time)
                elif event.kind in ("admit", "degrade"):
                    # A verdict as the journal's final record means the
                    # crash hit before the submit's autoscale tick.
                    tail_needs_tick = i == len(records) - 1
                elif event.kind == "stalled" and i == len(records) - 1:
                    # Crash between "stalled" and its paired "retry"/
                    # "failed": the resumed attempt re-detects the same
                    # stall and must not journal it twice.
                    stall_tail_job = job_id
            elif kind == "checkpoint":
                checkpoints.setdefault(record["job_id"], []).append(record)
            elif kind == "scale_obs":
                if self._autoscaler is not None:
                    # Rebuild idle streaks and cooldowns.  The decision is
                    # normally discarded (the journaled scale event that
                    # follows applies it) — unless the crash cut it off,
                    # in which case apply it now, exactly as the
                    # uninterrupted run would have.
                    decision = self._autoscaler.observe(
                        now=record["now"],
                        queue_depth=record["queue_depth"],
                        n_active=record["n_active"],
                        can_shrink=record["can_shrink"],
                    )
                    nxt = records[i + 1] if i + 1 < len(records) else None
                    applied = (
                        nxt is not None
                        and nxt.get("type") == "event"
                        and nxt["event"]["kind"] in ("scale_up", "scale_down")
                    )
                    if decision is not None and not applied:
                        self._apply_scale(
                            decision,
                            now=record["now"],
                            queue_depth=record["queue_depth"],
                            n_active=record["n_active"],
                            victim=self._shrink_victim(
                                now=record["now"],
                                active=self._timeline.active_devices,
                            ),
                        )
            # "progress" watermarks feed live streams only; "recovered"
            # markers from earlier recoveries carry no state.

        # A terminal event as the journal's final record means the crash
        # hit before the post-completion autoscale tick.
        redo_tick_time = None
        if records:
            last = records[-1]
            if last.get("type") == "event":
                last_row = last["event"]
                terminal = last_row["kind"] in ("complete", "failed") or (
                    last_row["kind"] == "cancel"
                    and last_row["detail"].get("phase") == "running"
                )
                if terminal:
                    redo_tick_time = last_row["time"]

        # A submit cut off before its verdict (the last ticket is queued
        # with no admission action on record) or before its autoscale tick.
        # A verdict needs the job, so an unrecoverable tail only gets its
        # tick back.
        tail = self._tickets[-1] if self._tickets else None
        if tail is None or tail.status != "queued":
            tail = None
        redo_verdict = (
            tail is not None
            and tail.admission_action == ""
            and tail._recoverable
        )
        if not (redo_verdict or tail_needs_tick):
            tail = None
        for ticket in self._tickets:
            if ticket.finished or ticket is tail:
                continue
            if not ticket._recoverable:
                self._fail_unrecoverable(ticket)
                inflight.pop(ticket.job_id, None)
            elif ticket.status == "queued":
                self._enqueue(ticket)

        if redo_tick_time is not None:
            self._autoscale_tick(now=redo_tick_time)

        if tail is not None:
            queued = True
            if redo_verdict:
                try:
                    queued = self._admission_verdict(tail)
                except AdmissionError:
                    # Strict-mode sheds raise to the submitter; at
                    # recovery time there is no submitter to tell.
                    queued = False
            if queued:
                self._autoscale_tick(now=tail.arrival)
                if tail._recoverable:
                    self._enqueue(tail)
                else:
                    self._fail_unrecoverable(tail)

        # A queued submit ends with ``_advance(arrival)``, which journals
        # nothing when it dispatches nothing, so it may or may not have run.
        last = self._tickets[-1] if self._tickets else None
        if last is not None and last.admission_action in ("admit", "degrade"):
            self._owed_pass_at = last.arrival

        for job_id, lane in inflight.items():
            retry = retried.get(job_id)
            snapshot, ckpt = _newest_snapshot(checkpoints.get(job_id, ()))
            # The injector state of the newer of the two records: a retry
            # after the checkpoint restarted the count from its own state.
            from_checkpoint = ckpt is not None and (
                retry is None or ckpt["seq"] > retry["seq"]
            )
            if from_checkpoint:
                injector = ckpt.get("injector")
            else:
                injector = retry["injector"] if retry else None
            self._resume[job_id] = {
                "lane": lane,
                "attempt": retry["attempt"] + 1 if retry else 1,
                "overhead": retry["overhead"] if retry else 0.0,
                "snapshot": snapshot,
                "injector": injector,
                "from_checkpoint": from_checkpoint,
                "skip_stalled": job_id == stall_tail_job,
            }
        self._journal_append(
            {"type": "recovered", "n_events": len(self._events)}
        )

    @staticmethod
    def _fail_unrecoverable(ticket: JobTicket) -> None:
        """Finalize a ticket whose job spec never reached the journal."""
        ticket.status = "failed"
        ticket.admission_reason = (
            "job spec could not be journaled; not recoverable"
        )
        ticket._finalize()

    # -- reporting -----------------------------------------------------------
    def report(self) -> ServiceReport:
        """Aggregate metrics over everything submitted so far."""
        counts: dict = {}
        latencies = []
        for ticket in self._tickets:
            counts[ticket.status] = counts.get(ticket.status, 0) + 1
            if ticket.latency_seconds is not None:
                latencies.append(ticket.latency_seconds)
        n_jobs = len(self._tickets)
        shed = counts.get("shed", 0) + counts.get("refused", 0)
        makespan = self._timeline.makespan_seconds
        finished = len(latencies)
        return ServiceReport(
            n_jobs=n_jobs,
            counts=counts,
            p50_latency_seconds=(
                percentile(latencies, 50.0) if latencies else 0.0
            ),
            p99_latency_seconds=(
                percentile(latencies, 99.0) if latencies else 0.0
            ),
            mean_latency_seconds=(
                sum(latencies) / finished if latencies else 0.0
            ),
            throughput_per_second=(
                finished / makespan if makespan > 0 else 0.0
            ),
            shed_rate=shed / n_jobs if n_jobs else 0.0,
            makespan_seconds=makespan,
            devices_provisioned=self._timeline.n_devices,
            devices_active=len(self._timeline.active_devices),
            scale_ups=sum(1 for e in self._events if e.kind == "scale_up"),
            scale_downs=sum(
                1 for e in self._events if e.kind == "scale_down"
            ),
            retries=sum(1 for e in self._events if e.kind == "retry"),
            stalled=sum(1 for e in self._events if e.kind == "stalled"),
        )
