"""Batch job scheduling over simulated streams (and devices).

The repo's north star is a service shape: many concurrent small/medium PSO
jobs, not one giant swarm.  :class:`BatchScheduler` multiplexes independent
:class:`~repro.batch.job.Job` specs onto the simulated hardware — a fleet of
``n_devices`` simulated GPUs, each exposing ``streams_per_device`` CUDA-style
streams (:class:`repro.gpusim.streams.Stream`) on one shared
:class:`~repro.gpusim.clock.SimClock` per device.

Determinism contract
--------------------
Every job executes on a *fresh* engine with its own Philox stream, allocator
and clock, so its trajectory, best value and solo simulated runtime are
bit-identical to a standalone ``engine.optimize`` call.  The scheduler then
replays each job's device work onto its assigned stream of the shared
per-device timeline.  Streams are FIFO and a job's launches are issued
back-to-back, so enqueueing the job's kernel sequence is time-equivalent to
enqueueing its total duration — which is what the replay does, keeping
start/end arithmetic exact.  Work on *different* streams overlaps, so the
batch makespan reflects genuine concurrency: for small and medium swarms
(the workload this layer targets) a single job occupies a small fraction of
a V100's SMs and full stream overlap is the faithful first-order model.

Packing policies
----------------
``"fifo"`` assigns jobs in submission order to the earliest-available
stream (classic list scheduling — no job is ever starved: each waits only
for jobs that were ahead of it in the queue).  ``"packed"`` is the
size-aware option: jobs are ordered longest-first (LPT bin-packing) before
the same earliest-available assignment, which tightens the makespan when
job durations are skewed.  All policies respect stream capacity by
construction — a stream runs exactly one unit of work at a time.

Heterogeneous fleets
--------------------
``devices=`` names the fleet's silicon from the :mod:`repro.devices`
catalog (``["v100", "a100"]``, or ready
:class:`~repro.gpusim.device.DeviceSpec` objects) instead of ``n_devices``
identical anonymous GPUs.  Placement then becomes cost-aware: each job is
priced per device with the cost model's canonical update-kernel probe and
assigned earliest-finish-time-first (deterministic, ties to the lowest
device index), GPU jobs run on their assigned device's spec (so an A100
job genuinely finishes sooner than a V100 one — trajectories stay
bit-identical, only simulated seconds move), and admission prices memory
against the *smallest* device in the fleet.  ``devices=`` refuses to
compose with ``retry``/``faults``/``breaker`` and with
``policy="fused"``: failover and fused stacking assume interchangeable
devices.

``"fused"`` goes further: a grouping pass
(:func:`repro.batch.fused.plan_fused_groups`) stacks *compatible* jobs —
same engine configuration, dim, swarm size and iteration budget; seeds,
hyperparameters and problems free to differ — into one ``m*n x d`` engine
loop per group (:class:`repro.batch.fused.FusedGroupRunner`).  Each group
occupies **one** stream for less than the sum of its members' solo times
(batched kernels amortise launch overhead; the host pays one Python loop
instead of ``m``), while every member's trajectory, simulated seconds and
result stay bit-identical to its solo run.  Ungroupable jobs fall back to
the solo path, and group lanes are packed longest-first like ``"packed"``.
``"fused"`` composes with admission control (groups are priced and
degraded as units), deadlines/budgets (a member hitting its budget gets
its own terminal status; the group's survivors continue solo), guards and
per-job checkpoint/resume — but not with ``retry``/``faults``/``breaker``
(fault attribution inside a stacked loop is ambiguous; the scheduler
refuses the combination up front).

Metrics
-------
Fleet-level kernel statistics flow through the existing profiler
(:func:`repro.gpusim.profiler.build_report_from_stats` over the merged
per-job launcher accumulators), and :class:`BatchResult` reports queue
waits, per-device occupancy and the makespan-vs-sum-of-solo speedup that
``benchmarks/bench_batch.py`` tracks.

Reliability
-----------
Every job runs through the shared attempt loop
(:class:`~repro.reliability.retry.AttemptLoop`), stepped to completion.
``retry`` (a :class:`~repro.reliability.retry.RetryPolicy` or an attempt
count) gives it a policy; ``faults`` (a :class:`~repro.reliability.faults
.FaultPlan`), ``checkpoint_dir`` or ``breaker`` imply the default one:
per-job checkpoints, deterministic fault injection, retry with simulated
backoff, failover onto a fresh simulated device — picked per attempt by
the breakers — and a last-resort CPU fallback.  Failed jobs become
``status="failed"`` outcomes instead of aborting the batch; recovery
overhead occupies the job's lane (stretching the makespan honestly) and
is merged into the fleet profile under the ``lost_work``/
``retry_backoff`` sections.  With none of these set the loop has no
policy: one attempt, and engine errors propagate.

Overload control
----------------
Four independent knobs harden the fleet against oversubscription, all
deterministic in simulated time (see ``docs/architecture.md``):

* **Admission & load shedding** — ``admission``/``max_queue``/
  ``memory_limit_bytes`` run the submitted jobs through an
  :class:`~repro.batch.admission.AdmissionPolicy` before anything
  executes; over capacity, the lowest-priority jobs are deterministically
  shed (terminal ``"shed"`` outcome) or degraded (smaller swarm / fp16
  storage, terminal ``"degraded"``), every decision recorded in
  :attr:`BatchResult.admission_rows`.
* **Deadlines & budgets** — ``deadline`` (host wall-seconds per job)
  and ``budget`` (a fleet-wide :class:`~repro.core.budget.Budget`) merge
  tightest-wins with each job's own budget and are enforced inside the
  engine loop; an expired job still reports its best-so-far with a
  ``"deadline_exceeded"``/``"budget_exhausted"`` status.
* **Circuit breakers** — ``breaker`` gives every simulated device a
  closed/open/half-open breaker (:class:`~repro.reliability.breaker.FleetHealth`);
  failing devices stop receiving attempts, work re-packs onto healthy
  devices, and the CPU fallback is the last resort.  Trip/close events
  land in :attr:`BatchResult.breaker_rows`.
* **Containment** — with any overload option set, ``run()`` never lets a
  :class:`~repro.errors.ReproError` escape: the job becomes a
  ``"failed"`` outcome with its structured error row instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.batch.admission import ADMISSION_MODES, AdmissionPolicy
from repro.batch.dispatch import (
    FleetTimeline,
    LanePlacement,
    RunningJob,
    effective_engine_options,
)
from repro.batch.job import Job, JobOutcome
from repro.core.budget import Budget
from repro.core.results import OptimizeResult
from repro.errors import InvalidParameterError, ReproError
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.launch import LaunchStats
from repro.gpusim.profiler import ProfileReport, build_report_from_stats
from repro.utils.naming import unknown_name
from repro.utils.tables import format_table

__all__ = ["BatchScheduler", "BatchResult", "POLICIES", "resolve_policy"]

#: Supported packing policies, in documentation order.
POLICIES = ("fifo", "packed", "fused")

#: Canonical placement probe for heterogeneous fleets: the fp32 fused
#: velocity+position update's resource shape (see
#: ``FastPSOEngine._kernels``), hierarchy hints included so L2-rich
#: devices price cache-resident jobs as faster.  Placement only needs the
#: fleet's *relative* per-device speed, so one representative kernel is
#: enough.
_PLACEMENT_PROBE = KernelSpec(
    name="placement_probe",
    flops_per_elem=11.0,
    bytes_read_per_elem=5 * 4.0,
    bytes_written_per_elem=2 * 4.0,
    registers_per_thread=40,
    reread_fraction=3.0 / 5.0,
    working_set_bytes_per_elem=3 * 4.0,
)


def resolve_policy(policy: str) -> str:
    """Validate a packing-policy name, returning its canonical spelling.

    The policy-registry analogue of :func:`repro.engines.resolve_engine`
    and :func:`repro.functions.resolve_function` — same unified
    unknown-name contract (:class:`~repro.errors.InvalidParameterError`
    with a did-you-mean hint via :mod:`repro.utils.naming`).
    """
    key = str(policy).lower()
    if key not in POLICIES:
        raise unknown_name("policy", policy, POLICIES)
    return key


def _lane_duration(report) -> float:
    """Stream time one job occupies: fault-free work plus any recovery
    overhead (lost attempts, simulated backoff) — retries stretch the
    schedule exactly as they would a real fleet's."""
    solo = (
        report.result.elapsed_seconds if report.result is not None else 0.0
    )
    return solo + report.recovery_seconds


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch run: per-job results plus fleet metrics."""

    outcomes: tuple[JobOutcome, ...]
    policy: str
    n_devices: int
    streams_per_device: int
    makespan_seconds: float
    device_makespans: tuple[float, ...]
    fleet_profile: ProfileReport | None = field(repr=False, default=None)
    #: Admission decisions (``AdmissionDecision.to_row()`` dicts), one per
    #: submitted job, when admission control ran; empty otherwise.
    admission_rows: tuple = ()
    #: Circuit-breaker trip/close events, ordinal-numbered, when a breaker
    #: fleet ran; empty otherwise.
    breaker_rows: tuple = ()
    #: Per-group fusion records (``policy="fused"``): member labels, how
    #: many members ran stacked, fast-loop rounds and the modelled lane
    #: seconds; empty for other policies.
    fused_rows: tuple = ()

    # -- fleet metrics -------------------------------------------------------
    @property
    def results(self) -> list[OptimizeResult]:
        """Per-job results, in submission order (``None`` for failed jobs)."""
        return [o.result for o in self.outcomes]

    @property
    def n_failed(self) -> int:
        """Jobs whose recovery was exhausted (terminal ``"failed"``)."""
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def n_shed(self) -> int:
        """Jobs refused admission (terminal ``"shed"``)."""
        return sum(1 for o in self.outcomes if o.status == "shed")

    @property
    def n_degraded(self) -> int:
        """Jobs admission ran in a reduced variant."""
        return sum(1 for o in self.outcomes if o.status == "degraded")

    @property
    def n_expired(self) -> int:
        """Jobs whose budget/deadline tripped (best-so-far still reported)."""
        return sum(
            1
            for o in self.outcomes
            if o.status in ("deadline_exceeded", "budget_exhausted")
        )

    @property
    def all_succeeded(self) -> bool:
        """Every job produced a usable result (nothing failed or shed)."""
        return all(o.succeeded for o in self.outcomes)

    @property
    def total_retries(self) -> int:
        """Extra attempts beyond the first, summed over all jobs."""
        return sum(max(0, o.attempts - 1) for o in self.outcomes)

    @property
    def lost_seconds(self) -> float:
        """Simulated seconds computed and discarded with failed attempts."""
        return sum(o.lost_seconds for o in self.outcomes)

    @property
    def backoff_seconds(self) -> float:
        """Simulated seconds the fleet spent backing off between attempts."""
        return sum(o.backoff_seconds for o in self.outcomes)

    @property
    def recovery_seconds(self) -> float:
        """Total simulated recovery overhead across the fleet."""
        return self.lost_seconds + self.backoff_seconds

    @property
    def sum_solo_seconds(self) -> float:
        """Simulated time a one-job-at-a-time serial run would take."""
        return sum(o.solo_seconds for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Sum-of-solo over makespan — the batching win from overlap."""
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.sum_solo_seconds / self.makespan_seconds

    @property
    def mean_queue_wait_seconds(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.queue_wait_seconds for o in self.outcomes) / len(
            self.outcomes
        )

    @property
    def max_queue_wait_seconds(self) -> float:
        return max((o.queue_wait_seconds for o in self.outcomes), default=0.0)

    def device_occupancy(self, device_index: int) -> float:
        """Busy fraction of one device's stream-seconds over the makespan."""
        if self.makespan_seconds <= 0.0:
            return 0.0
        busy = sum(
            o.solo_seconds
            for o in self.outcomes
            if o.device_index == device_index
        )
        return busy / (self.streams_per_device * self.makespan_seconds)

    @property
    def fleet_occupancy(self) -> float:
        """Busy fraction of all stream-seconds over the makespan."""
        if self.makespan_seconds <= 0.0:
            return 0.0
        lanes = self.n_devices * self.streams_per_device
        return self.sum_solo_seconds / (lanes * self.makespan_seconds)

    # -- presentation --------------------------------------------------------
    def summary(self) -> str:
        """One aligned table: placement, timing and result per job."""
        rows = [
            [
                o.job.label,
                (
                    f"d{o.device_index}/s{o.stream_index}"
                    if o.device_index >= 0
                    else "-"
                ),
                o.queue_wait_seconds,
                o.solo_seconds,
                o.end_seconds,
                (
                    o.result.best_value
                    if o.result is not None
                    else o.status.upper()
                ),
                o.status,
            ]
            for o in self.outcomes
        ]
        table = format_table(
            ["job", "lane", "wait_s", "solo_s", "end_s", "best", "status"],
            rows,
            title=(
                f"batch: {len(self.outcomes)} jobs, policy={self.policy}, "
                f"{self.n_devices} device(s) x {self.streams_per_device} "
                f"stream(s)"
            ),
            float_fmt=".4g",
        )
        footer = (
            f"makespan={self.makespan_seconds:.6g}s "
            f"sum-of-solo={self.sum_solo_seconds:.6g}s "
            f"speedup={self.speedup:.2f}x "
            f"occupancy={self.fleet_occupancy:.1%}"
        )
        if self.total_retries or self.n_failed:
            footer += (
                f"\nrecovery: {self.total_retries} retr"
                f"{'y' if self.total_retries == 1 else 'ies'}, "
                f"{self.n_failed} failed job(s), "
                f"lost={self.lost_seconds:.6g}s "
                f"backoff={self.backoff_seconds:.6g}s "
                f"overhead={self.recovery_seconds:.6g}s"
            )
        if self.n_shed or self.n_degraded or self.n_expired:
            footer += (
                f"\noverload: {self.n_shed} shed, "
                f"{self.n_degraded} degraded, "
                f"{self.n_expired} expired (deadline/budget)"
            )
        return f"{table}\n{footer}"

    def failure_table(self) -> str:
        """Aligned table of failed/shed jobs and why; '' if none."""
        failed = [o for o in self.outcomes if not o.succeeded]
        if not failed:
            return ""
        rows = [
            [
                o.job.label,
                (
                    f"d{o.device_index}/s{o.stream_index}"
                    if o.device_index >= 0
                    else "-"
                ),
                o.status,
                o.attempts,
                o.lost_seconds,
                (o.error or o.admission_reason or "")[:72],
            ]
            for o in failed
        ]
        return format_table(
            ["job", "lane", "status", "attempts", "lost_s", "last error"],
            rows,
            title=f"{len(failed)} job(s) failed",
            float_fmt=".4g",
        )

    def to_dict(self) -> dict:
        """JSON-safe dictionary (versioned like :mod:`repro.io` payloads)."""
        from repro.io import SCHEMA_VERSION, result_to_dict

        return {
            "schema_version": SCHEMA_VERSION,
            "policy": self.policy,
            "n_devices": self.n_devices,
            "streams_per_device": self.streams_per_device,
            "makespan_seconds": self.makespan_seconds,
            "sum_solo_seconds": self.sum_solo_seconds,
            "speedup": self.speedup,
            "fleet_occupancy": self.fleet_occupancy,
            "device_makespans": list(self.device_makespans),
            "n_failed": self.n_failed,
            "n_shed": self.n_shed,
            "n_degraded": self.n_degraded,
            "n_expired": self.n_expired,
            "total_retries": self.total_retries,
            "lost_seconds": self.lost_seconds,
            "backoff_seconds": self.backoff_seconds,
            "recovery_seconds": self.recovery_seconds,
            "overload": {
                "admission": [dict(row) for row in self.admission_rows],
                "breaker_events": [dict(row) for row in self.breaker_rows],
            },
            "fused_groups": [dict(row) for row in self.fused_rows],
            "jobs": [
                {
                    "label": o.job.label,
                    "device": o.device_index,
                    "stream": o.stream_index,
                    "start_seconds": o.start_seconds,
                    "end_seconds": o.end_seconds,
                    "queue_wait_seconds": o.queue_wait_seconds,
                    "status": o.status,
                    "attempts": o.attempts,
                    "error": o.error,
                    "lost_seconds": o.lost_seconds,
                    "backoff_seconds": o.backoff_seconds,
                    "fell_back_to_cpu": o.fell_back_to_cpu,
                    "admission_reason": o.admission_reason,
                    "result": (
                        result_to_dict(o.result)
                        if o.result is not None
                        else None
                    ),
                }
                for o in self.outcomes
            ],
        }


class BatchScheduler:
    """Packs independent PSO jobs onto simulated streams and devices.

    Parameters
    ----------
    n_devices:
        Number of simulated devices in the fleet; each gets its own shared
        :class:`SimClock` (the multi-device analogue of the paper's
        Section 3.5 particle-splitting fleet, here multiplexing whole jobs
        instead of sub-swarms).
    devices:
        Optional heterogeneous fleet: a sequence of catalog names/aliases
        (resolved through :func:`repro.devices.resolve_device`) or ready
        :class:`~repro.gpusim.device.DeviceSpec` objects, one per device.
        Implies ``n_devices=len(devices)`` and switches placement from
        round-robin to cost-aware earliest-finish-time (see module
        docstring).  Mutually exclusive with ``retry``/``faults``/
        ``breaker`` and ``policy="fused"``.
    streams_per_device:
        Concurrent streams per device — the lane count that bounds how many
        jobs a device overlaps.
    policy:
        ``"fifo"``, ``"packed"`` or ``"fused"`` (see module docstring).
        ``"fused"`` stacks compatible jobs into shared engine loops and is
        mutually exclusive with ``retry``/``faults``/``breaker``.
    retry:
        An attempt count or a :class:`~repro.reliability.retry.RetryPolicy`
        enabling retry/failover per job.  Failed jobs become
        ``status="failed"`` outcomes instead of raising.
    faults:
        A :class:`~repro.reliability.faults.FaultPlan` injecting
        deterministic faults into selected jobs (implies the default retry
        policy unless ``retry`` is given).
    checkpoint_dir:
        Directory for per-job checkpoints (one subdirectory per job); with
        it, retried jobs resume from their last checkpoint instead of
        restarting.  ``checkpoint_every``/``checkpoint_keep`` set the
        cadence and retention.
    graph:
        Default for the engines' launch-graph fast path
        (:mod:`repro.gpusim.graph`): ``True``/``False`` forces it on or off
        for every job that doesn't say otherwise in its own
        ``engine_options``; ``None`` (default) leaves each engine's own
        default in place.  Jobs running under fault injection fall back to
        eager regardless.
    admission:
        Admission control: an :class:`~repro.batch.admission.AdmissionPolicy`,
        or a mode string (``"degrade"``/``"strict"``) to build one from
        ``max_queue``/``memory_limit_bytes``.
    max_queue, memory_limit_bytes:
        Shorthand for an admission policy's queue bound and per-device
        memory cap (only valid when ``admission`` is not already a policy
        object; either alone enables admission in ``"degrade"`` mode).
    deadline:
        Per-job wall-clock deadline in host seconds — shorthand for
        merging ``Budget(wall_seconds=deadline)`` into every job.
    budget:
        Fleet-wide :class:`~repro.core.budget.Budget` merged
        (tightest-wins) with each job's own ``Job.budget``.
    priority:
        When ``True``, jobs execute and are placed highest-priority-first
        (``Job.priority``, submission order breaking ties) instead of in
        submission order.
    breaker:
        Per-device circuit breakers: a
        :class:`~repro.reliability.breaker.BreakerPolicy`, or ``True`` for
        the default policy.  Implies the reliability execution path.
    guard:
        A :class:`~repro.reliability.guard.SwarmHealthGuard` applied to
        every job (swarm-health repairs inside the engine loop).  One
        shared instance: its event log is reset at each job's start, so
        per-job events are not retained across the batch.
    """

    def __init__(
        self,
        *,
        n_devices: int = 1,
        streams_per_device: int = 4,
        devices=None,
        policy: str = "fifo",
        retry=None,
        faults=None,
        checkpoint_dir=None,
        checkpoint_every: int = 10,
        checkpoint_keep: int = 3,
        graph: bool | None = None,
        admission=None,
        max_queue: int | None = None,
        memory_limit_bytes: int | None = None,
        deadline: float | None = None,
        budget: Budget | None = None,
        priority: bool = False,
        breaker=None,
        guard=None,
    ) -> None:
        if n_devices < 1:
            raise InvalidParameterError(
                f"need at least one device, got {n_devices}"
            )
        if streams_per_device < 1:
            raise InvalidParameterError(
                f"need at least one stream per device, got {streams_per_device}"
            )
        from repro.reliability.retry import as_retry_policy

        policy = resolve_policy(policy)
        retry = as_retry_policy(retry)
        # Every composition the scheduler refuses, refused in one place.
        recovering = (
            retry is not None or faults is not None or breaker is not None
        )
        refusal = None
        if devices is not None and (recovering or policy == "fused"):
            refusal = (
                "devices= (a heterogeneous fleet) does not compose with "
                "retry/faults/breaker or policy='fused': failover and "
                "fused stacking assume interchangeable devices; use a "
                "homogeneous n_devices= fleet for those"
            )
        elif policy == "fused" and recovering:
            refusal = (
                "policy='fused' does not compose with retry/faults/breaker: "
                "a fault inside a stacked loop cannot be attributed to one "
                "member; use policy='packed' for fault-injected fleets"
            )
        if refusal is not None:
            raise InvalidParameterError(refusal)
        self.device_specs = None
        if devices is not None:
            from repro.devices import resolve_device

            specs = tuple(resolve_device(d) for d in devices)
            if not specs:
                raise InvalidParameterError(
                    "devices= must name at least one catalog entry"
                )
            if n_devices not in (1, len(specs)):
                raise InvalidParameterError(
                    f"n_devices={n_devices} contradicts the {len(specs)} "
                    "entries in devices=; pass one or the other"
                )
            n_devices = len(specs)
            self.device_specs = specs
        self.n_devices = n_devices
        self.streams_per_device = streams_per_device
        self.policy = policy
        self.retry = retry
        self.faults = faults
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.graph = graph
        self.admission = self._build_admission(
            admission, max_queue=max_queue, memory_limit_bytes=memory_limit_bytes
        )
        self._check_limits(deadline, budget, guard)
        self.deadline, self.budget, self.guard = deadline, budget, guard
        self.priority = bool(priority)
        self.breaker = self._build_breaker(breaker)
        self._queue: list[Job] = []

    @staticmethod
    def _check_limits(deadline, budget, guard) -> None:
        """Validate the deadline/budget/guard knobs serving shares."""
        if deadline is not None and not deadline > 0:
            raise InvalidParameterError(
                f"deadline must be positive seconds, got {deadline!r}"
            )
        if budget is not None and not isinstance(budget, Budget):
            raise InvalidParameterError(
                f"budget must be a repro Budget, got {type(budget).__name__}"
            )
        if guard is not None and not hasattr(guard, "inspect"):
            raise InvalidParameterError(
                "guard must provide inspect() (see repro.reliability.guard), "
                f"got {type(guard).__name__}"
            )

    @staticmethod
    def _build_admission(
        admission, *, max_queue, memory_limit_bytes
    ) -> AdmissionPolicy | None:
        if isinstance(admission, AdmissionPolicy):
            if max_queue is not None or memory_limit_bytes is not None:
                raise InvalidParameterError(
                    "pass max_queue/memory_limit_bytes inside the "
                    "AdmissionPolicy when supplying one"
                )
            return admission
        if admission is None:
            if max_queue is None and memory_limit_bytes is None:
                return None
            admission = "degrade"
        if admission not in ADMISSION_MODES:
            raise InvalidParameterError(
                f"admission must be an AdmissionPolicy or one of "
                f"{ADMISSION_MODES}, got {admission!r}"
            )
        return AdmissionPolicy(
            mode=admission,
            max_queue=max_queue,
            memory_limit_bytes=memory_limit_bytes,
        )

    @staticmethod
    def _build_breaker(breaker):
        if breaker is None:
            return None
        from repro.reliability.breaker import BreakerPolicy

        if breaker is True:
            return BreakerPolicy()
        if not isinstance(breaker, BreakerPolicy):
            raise InvalidParameterError(
                "breaker must be True or a BreakerPolicy, got "
                f"{type(breaker).__name__}"
            )
        return breaker

    def _job_engine_options(self, job: Job) -> dict:
        """The job's engine options with the scheduler's graph default mixed
        in (the job's own setting always wins)."""
        return effective_engine_options(job, self.graph)

    def _estimate_job_seconds(self, job: Job, spec) -> float:
        """Predicted solo seconds of *job* on *spec*, for placement only.

        Prices the canonical per-iteration workload — the shape of the
        fused velocity+position update, hierarchy hints included — through
        :func:`~repro.gpusim.costmodel.kernel_cost` and scales by the
        iteration budget.  Deliberately coarse: placement needs the
        *relative* speed of the fleet's devices on this job's element
        count, not an exact runtime (both the probe and the config are
        memoized, so fleets price thousands of jobs cheaply).
        """
        from repro.gpusim.costmodel import kernel_cost
        from repro.gpusim.launch import resource_aware_config

        n_elems = max(1, job.n_particles * job.dim)
        config = resource_aware_config(
            spec, n_elems, kernel_spec=_PLACEMENT_PROBE
        )
        cost = kernel_cost(spec, _PLACEMENT_PROBE, config, n_elems)
        return cost.seconds * max(1, job.max_iter)

    # -- submission ----------------------------------------------------------
    def submit(self, job: Job | None = None, /, **spec: object) -> Job:
        """Queue a job; either a ready :class:`Job` or its field values."""
        if job is None:
            job = Job(**spec)  # type: ignore[arg-type]
        elif spec:
            raise InvalidParameterError(
                "pass either a Job or keyword fields, not both"
            )
        if not isinstance(job, Job):
            raise InvalidParameterError(
                f"submit() requires a Job, got {type(job).__name__}"
            )
        self._queue.append(job)
        return job

    def submit_many(self, jobs) -> list[Job]:
        """Queue an iterable of jobs (specs may be Jobs or field dicts)."""
        out = []
        for job in jobs:
            if isinstance(job, dict):
                out.append(self.submit(**job))
            else:
                out.append(self.submit(job))
        return out

    @property
    def pending(self) -> tuple[Job, ...]:
        """Jobs queued and not yet run."""
        return tuple(self._queue)

    # -- execution -----------------------------------------------------------
    def run(self, jobs=None) -> BatchResult:
        """Execute all queued jobs (plus *jobs*, if given) as one batch.

        Drains the queue.  Returns a :class:`BatchResult` whose per-job
        results are bit-identical to solo runs of the same specs.
        """
        batch = list(self._queue)
        if jobs is not None:
            for job in jobs:
                batch.append(Job(**job) if isinstance(job, dict) else job)
        self._queue = []
        if not batch:
            raise InvalidParameterError("cannot run an empty batch")
        for job in batch:
            if not isinstance(job, Job):
                raise InvalidParameterError(
                    f"batch entries must be Jobs, got {type(job).__name__}"
                )

        fused_plan = None
        if self.policy == "fused":
            from repro.batch.fused import plan_fused_groups

        decisions = None
        if self.admission is not None:
            if self.policy == "fused":
                # Price prospective groups as units so the memory ladder
                # degrades them coherently (see AdmissionPolicy.plan).
                fused_plan = plan_fused_groups(
                    batch, options_for=self._job_engine_options
                )
            if self.device_specs is not None:
                # A job must fit wherever placement puts it, so admission
                # prices memory against the smallest device in the fleet.
                device_mem = min(
                    s.global_mem_bytes for s in self.device_specs
                )
            else:
                from repro.gpusim.device import tesla_v100

                device_mem = tesla_v100().global_mem_bytes
            decisions = self.admission.plan(
                batch,
                streams_per_device=self.streams_per_device,
                device_mem_bytes=device_mem,
                groups=fused_plan,
            )

        health = None
        if self.breaker is not None:
            from repro.reliability.breaker import FleetHealth

            health = FleetHealth(self.n_devices, policy=self.breaker)

        exec_order = list(range(len(batch)))
        if self.priority:
            exec_order.sort(key=lambda i: (-batch[i].priority, i))

        # The job actually run (the degraded variant under admission) and
        # its report (None for shed jobs, which never execute).
        effective: list[Job] = list(batch)
        executed = [None] * len(batch)

        # Fused grouping happens *after* admission so groups are formed
        # over the jobs that actually run (shed members drop out; coherent
        # degradation keeps a squeezed group's fusion key shared).
        group_of: dict[int, int] = {}
        fused_groups: list[list[int]] = []
        if self.policy == "fused":
            admitted = []
            for i in exec_order:
                decision = decisions[i] if decisions is not None else None
                if decision is not None and decision.action == "shed":
                    continue
                if decision is not None and decision.job is not None:
                    effective[i] = decision.job
                admitted.append(i)
            local_groups = plan_fused_groups(
                [effective[i] for i in admitted],
                options_for=self._job_engine_options,
            )
            fused_groups = [[admitted[k] for k in g] for g in local_groups]
            for gi, group in enumerate(fused_groups):
                for i in group:
                    group_of[i] = gi

        group_units: list[tuple[tuple[int, ...], float]] = []
        fused_rows: list[dict] = []
        started_groups: set[int] = set()
        base_now = 0.0
        n_run = 0
        # Estimated busy seconds per device, for heterogeneous placement.
        est_busy = [0.0] * self.n_devices
        for i in exec_order:
            decision = decisions[i] if decisions is not None else None
            if decision is not None and decision.action == "shed":
                continue
            if decision is not None and decision.job is not None:
                effective[i] = decision.job
            gi = group_of.get(i)
            if gi is not None:
                if gi not in started_groups:
                    started_groups.add(gi)
                    indices = tuple(fused_groups[gi])
                    reports, lane_seconds, row = self._execute_fused(
                        indices, effective
                    )
                    for j in indices:
                        executed[j] = reports[j]
                    group_units.append((indices, lane_seconds))
                    fused_rows.append(row)
                    base_now += lane_seconds
                    n_run += len(indices)
                continue
            if self.device_specs is not None:
                # Earliest finish time over the catalog fleet: price the
                # job on every device with the cost-model probe and place
                # it where it would finish soonest (ties to the lowest
                # device index, so schedules are fully deterministic).
                estimates = [
                    self._estimate_job_seconds(effective[i], spec)
                    for spec in self.device_specs
                ]
                preferred = min(
                    range(self.n_devices),
                    key=lambda d: (est_busy[d] + estimates[d], d),
                )
                est_busy[preferred] += estimates[preferred]
            else:
                # Round-robin preferred device so a healthy breaker fleet
                # spreads jobs instead of collapsing onto device 0 (the
                # breaker only overrides the preference when that device
                # is open).
                preferred = n_run % self.n_devices
            executed[i] = self._execute(
                i,
                effective[i],
                health=health,
                base_now=base_now,
                preferred_device=preferred,
            )
            base_now += _lane_duration(executed[i])
            n_run += 1

        outcomes, device_makespans = self._schedule(
            effective,
            executed,
            decisions=decisions,
            exec_order=exec_order,
            health=health,
            group_units=group_units,
        )
        profile = self._fleet_profile([r for r in executed if r is not None])
        return BatchResult(
            outcomes=tuple(outcomes),
            policy=self.policy,
            n_devices=self.n_devices,
            streams_per_device=self.streams_per_device,
            makespan_seconds=max(device_makespans, default=0.0),
            device_makespans=tuple(device_makespans),
            fleet_profile=profile,
            admission_rows=(
                tuple(d.to_row() for d in decisions)
                if decisions is not None
                else ()
            ),
            breaker_rows=tuple(health.to_rows()) if health is not None else (),
            fused_rows=tuple(fused_rows),
        )

    # -- internals -----------------------------------------------------------
    @property
    def _overload_enabled(self) -> bool:
        """Any overload-control knob set: contain errors, never raise."""
        return (
            self.admission is not None
            or self.deadline is not None
            or self.budget is not None
            or self.breaker is not None
        )

    def _effective_budget(self, job: Job) -> Budget | None:
        """Tightest-wins merge of job, fleet and deadline budgets."""
        deadline = (
            Budget(wall_seconds=self.deadline)
            if self.deadline is not None
            else None
        )
        return Budget.merge_all(job.budget, self.budget, deadline)

    def _execute(
        self,
        index: int,
        job: Job,
        *,
        health=None,
        base_now=0.0,
        preferred_device=None,
    ):
        """Run one job through the attempt loop; returns its RecoveryReport.

        Without any reliability option the loop has no policy: one attempt
        on a fresh engine.  With reliability enabled the job gets per-job
        checkpoints, injected faults and retries with failover
        (breaker-picked devices when *health* is given), and a job that
        exhausts its attempts yields a failed report.  A heterogeneous
        fleet pins the job to its EFT-assigned device and that device's
        spec.  Errors propagate unless an overload knob is set, which
        contains any :class:`ReproError` as a failed report.
        """
        from repro.reliability.retry import (
            AttemptLoop,
            ClockLedger,
            RetryPolicy,
            drive_attempts,
        )

        policy = self.retry
        if policy is None and (
            self.faults is not None
            or self.checkpoint_dir is not None
            or self.breaker is not None
        ):
            policy = RetryPolicy()
        hetero = self.device_specs is not None
        try:
            loop = AttemptLoop(
                job,
                policy=policy,
                ledger=ClockLedger(base_now),
                options_for=self._job_engine_options,
                spec_for=self.device_specs.__getitem__ if hetero else None,
                injector=(
                    self.faults.injector_for(index, job.label)
                    if self.faults is not None
                    else None
                ),
                checkpoint=self._checkpoint_manager(index),
                budget=self._effective_budget(job),
                guard=self.guard,
                health=health,
                preferred=preferred_device,
                lane=preferred_device if hetero else None,
                label=job.label,
            )
            return drive_attempts(loop)
        except ReproError as exc:
            if not self._overload_enabled:
                raise
            return self._failed_report(exc, job.label)

    @staticmethod
    def _failed_report(exc: ReproError, label: str):
        """The failed report of a job an escaped error ended."""
        from repro.reliability.retry import RecoveryReport

        exc.with_context(job=label)
        return RecoveryReport(
            result=None,
            attempts=1,
            errors=(str(exc),),
            error_rows=(exc.to_row(),),
        )

    def _checkpoint_manager(self, index: int):
        """Job *index*'s checkpoint manager, or ``None`` without a dir."""
        if self.checkpoint_dir is None:
            return None
        from pathlib import Path

        from repro.reliability.checkpoint import CheckpointManager

        return CheckpointManager(
            Path(self.checkpoint_dir) / f"job{index:04d}",
            every=self.checkpoint_every,
            keep=self.checkpoint_keep,
        )

    def _execute_fused(self, indices, effective):
        """Run one fused group; returns ``(reports_by_index, lane_seconds,
        record_row)``.

        Every member gets the engine, budget, guard and checkpoint manager
        the solo path would have given it — :class:`FusedGroupRunner` only
        changes *how* the iterations are driven, never what they compute.
        With any overload knob set, an escaping :class:`ReproError` fails
        the whole group (its members' states are interdependent mid-loop)
        instead of aborting the batch.
        """
        from repro.batch.fused import FusedGroupRunner
        from repro.reliability.retry import RecoveryReport

        labels = [effective[i].label for i in indices]
        try:
            runs = []
            engines = {}
            for i in indices:
                job = effective[i]
                manager = self._checkpoint_manager(i)
                member = RunningJob(
                    job,
                    engine_options=self._job_engine_options(job),
                    budget=self._effective_budget(job),
                    guard=self.guard,
                    checkpoint=manager,
                    restore=manager.load_latest() if manager else None,
                )
                runs.append((i, member.run))
                engines[i] = member.engine
            runner = FusedGroupRunner(runs)
            results = runner.execute()
        except ReproError as exc:
            if not self._overload_enabled:
                raise
            reports = {
                i: self._failed_report(exc, ", ".join(labels)) for i in indices
            }
            row = {
                "indices": list(indices),
                "members": labels,
                "status": "failed",
                "error": str(exc),
            }
            return reports, 0.0, row
        reports = {
            i: RecoveryReport(
                result=result, attempts=1, engines=(engines[i],)
            )
            for (i, _run), result in zip(runs, results)
        }
        row = {
            "indices": list(indices),
            "members": labels,
            "status": "completed",
            **runner.info(),
        }
        return reports, runner.lane_seconds, row

    def _schedule(
        self,
        batch: list[Job],
        executed,
        *,
        decisions=None,
        exec_order=None,
        health=None,
        group_units=None,
    ) -> tuple[list[JobOutcome], list[float]]:
        """Replay job durations onto shared per-device stream timelines.

        Shed jobs (``executed[i] is None``) never touch a lane.  When a
        breaker fleet placed a job on a specific device
        (``report.device_index``), placement is pinned to that device's
        lanes — open-breaker devices stop receiving work and the schedule
        re-packs onto the healthy ones.

        Placement arithmetic lives in
        :class:`~repro.batch.dispatch.FleetTimeline` (shared with the
        serving layer); the rule is unchanged from the Stream-based
        implementation — earliest-available lane, ties to the lowest
        (device, stream) — so schedules are bit-identical to prior
        releases.
        """
        timeline = FleetTimeline(self.n_devices, self.streams_per_device)

        order = [
            i
            for i in (exec_order if exec_order is not None else range(len(batch)))
            if executed[i] is not None
        ]

        # Placement units: a fused group shares one lane segment (its
        # modelled group duration); every other job is its own unit.
        group_index: dict[int, int] = {}
        if group_units:
            for gi, (indices, _lane_s) in enumerate(group_units):
                for i in indices:
                    group_index[i] = gi
        units: list[tuple[tuple[int, ...], float]] = []
        placed_groups: set[int] = set()
        for i in order:
            gi = group_index.get(i)
            if gi is None:
                units.append(((i,), _lane_duration(executed[i])))
            elif gi not in placed_groups:
                placed_groups.add(gi)
                indices, lane_seconds = group_units[gi]
                live = tuple(j for j in indices if executed[j] is not None)
                units.append((live, lane_seconds))
        if self.policy in ("packed", "fused"):
            # LPT bin-packing: longest units placed first, ties broken by
            # submission order so the schedule is fully deterministic.
            units.sort(key=lambda u: (-u[1], u[0][0]))

        placements: dict[int, LanePlacement] = {}
        for unit, duration in units:
            report = executed[unit[0]]
            devices = None
            if (
                (health is not None or self.device_specs is not None)
                and report.device_index is not None
                and 0 <= report.device_index < self.n_devices
            ):
                devices = (report.device_index,)
            placement = timeline.place(duration, devices=devices)
            for i in unit:
                placements[i] = placement

        device_makespans = timeline.device_makespans()

        outcomes = []
        for i, job in enumerate(batch):
            decision = decisions[i] if decisions is not None else None
            report = executed[i]
            if report is None:
                # Shed at admission: terminal outcome, no lane, no result.
                outcomes.append(
                    JobOutcome(
                        job=job,
                        result=None,
                        device_index=-1,
                        stream_index=-1,
                        submit_order=i,
                        start_seconds=0.0,
                        end_seconds=0.0,
                        status="shed",
                        attempts=0,
                        admission_reason=(
                            decision.reason if decision is not None else ""
                        ),
                    )
                )
                continue
            placement = placements[i]
            if report.result is None:
                status = "failed"
            elif report.result.status != "completed":
                # The engine's own terminal status (deadline_exceeded /
                # budget_exhausted) wins over the admission bookkeeping.
                status = report.result.status
            elif decision is not None and decision.action == "degrade":
                status = "degraded"
            else:
                status = "completed"
            outcomes.append(
                JobOutcome(
                    job=job,
                    result=report.result,
                    device_index=placement.device_index,
                    stream_index=placement.stream_index,
                    submit_order=i,
                    start_seconds=placement.start_seconds,
                    end_seconds=placement.end_seconds,
                    status=status,
                    attempts=report.attempts,
                    error=report.error,
                    lost_seconds=report.lost_seconds,
                    backoff_seconds=report.backoff_seconds,
                    fell_back_to_cpu=report.fell_back_to_cpu,
                    admission_reason=(
                        decision.reason
                        if decision is not None and decision.action != "admit"
                        else ""
                    ),
                )
            )
        return outcomes, device_makespans

    def _fleet_profile(self, executed) -> ProfileReport:
        """Merge every GPU job's launcher accumulators into one report.

        Reuses the existing aggregation-first profiler path: per-job
        :class:`LaunchStats` buckets are summed per ``(kernel, section)``
        key, then folded by :func:`build_report_from_stats` — so Table-3
        style throughput metrics are available for the whole fleet.
        """
        merged: dict[tuple[str, str | None], LaunchStats] = {}
        sections: dict[str, float] = {}
        all_contexts = []
        for report in executed:
            # Every attempt's engine contributes — a failed attempt's
            # kernels really ran on the simulated fleet, and its section
            # totals are part of what the fleet spent.  The recovery clock
            # adds the lost_work/retry_backoff sections alongside them.
            clocks = {
                id(report.recovery_clock): report.recovery_clock
            }
            for engine in report.engines:
                contexts = list(self._engine_contexts(engine))
                all_contexts.extend(contexts)
                for c in contexts:
                    clocks[id(c.clock)] = c.clock
                clocks.setdefault(id(engine.clock), engine.clock)
            for clock in clocks.values():
                for label, seconds in clock.section_totals.items():
                    sections[label] = sections.get(label, 0.0) + seconds
        for ctx in all_contexts:
            for key, bucket in ctx.launcher.stats.items():
                into = merged.get(key)
                if into is None:
                    merged[key] = replace(bucket)
                else:
                    into.launches += bucket.launches
                    into.total_elems += bucket.total_elems
                    into.seconds += bucket.seconds
                    into.body_seconds += bucket.body_seconds
                    into.bytes_read += bucket.bytes_read
                    into.bytes_written += bucket.bytes_written
                    into.bytes_l2 += bucket.bytes_l2
                    into.flops += bucket.flops
                    into.occupancy_sum += bucket.occupancy_sum
        return build_report_from_stats(merged, sections)

    @staticmethod
    def _engine_contexts(engine):
        """GPU contexts owned by *engine* (workers included for multi-GPU)."""
        ctx = getattr(engine, "ctx", None)
        if ctx is not None:
            yield ctx
        for worker in getattr(engine, "workers", ()):
            worker_ctx = getattr(worker, "ctx", None)
            if worker_ctx is not None:
                yield worker_ctx
