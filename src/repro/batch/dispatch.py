"""Incremental dispatch primitives: a growable fleet timeline and stepped jobs.

:class:`BatchScheduler` plans a *closed* batch: every job is known up
front, executed host-sequentially, and its duration replayed onto
per-device stream timelines.  A serving front-end (:mod:`repro.serve`)
cannot work that way — jobs arrive after the fleet has started, can be
cancelled mid-run, and the fleet itself grows and shrinks under
autoscaling.  This module factors the two primitives both layers share:

:class:`FleetTimeline`
    The placement arithmetic of ``BatchScheduler._schedule`` as a plain
    mutable value — per-lane horizons in simulated seconds, earliest-lane
    selection with deterministic tie-breaking, and (new for serving)
    devices that can be **added** mid-flight (their lanes open at the boot
    time) or **retired** (no further placements; committed work keeps its
    end time).  Placement is pure float arithmetic: no clocks, no
    randomness, so identical submissions reproduce identical schedules.

:class:`RunningJob`
    One job on the :meth:`Engine.start_run` stepped protocol: the host
    drives ``step(t)`` an iteration at a time, may read the live
    best-so-far between steps (streaming), snapshot it mid-run
    (checkpoint-backed cancel) and finish early with a terminal status
    (``"cancelled"``).  Because ``optimize()`` is literally the same
    start/step/finish sequence, a :class:`RunningJob` driven to completion
    is bit-identical to the solo run of the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batch.job import Job
from repro.core.results import OptimizeResult
from repro.errors import InvalidParameterError

__all__ = ["FleetTimeline", "LanePlacement", "RunningJob", "start_job"]


@dataclass(frozen=True)
class LanePlacement:
    """One unit of work committed to a lane of the fleet timeline."""

    device_index: int
    stream_index: int
    start_seconds: float
    end_seconds: float

    @property
    def duration_seconds(self) -> float:
        return self.end_seconds - self.start_seconds


class FleetTimeline:
    """Per-lane horizons of a simulated fleet, growable and retirable.

    A *lane* is one stream of one device; its **horizon** is the simulated
    second at which it next becomes free.  :meth:`place` implements the
    batch scheduler's earliest-available rule — the lane with the lowest
    horizon wins, ties broken by (device, stream) order so single-lane
    fleets degenerate to the serial schedule — extended with a
    ``not_before`` floor for jobs that arrive after t=0.

    Devices added via :meth:`add_device` open every lane at the boot time;
    devices retired via :meth:`retire_device` take no further placements
    but keep their committed horizons (they appear in
    :meth:`device_makespans`, as a real decommissioned card's completed
    work would).
    """

    def __init__(
        self, n_devices: int = 1, streams_per_device: int = 4
    ) -> None:
        if n_devices < 1:
            raise InvalidParameterError(
                f"need at least one device, got {n_devices}"
            )
        if streams_per_device < 1:
            raise InvalidParameterError(
                f"need at least one stream per device, got {streams_per_device}"
            )
        self.streams_per_device = int(streams_per_device)
        self._horizons: list[list[float]] = [
            [0.0] * self.streams_per_device for _ in range(n_devices)
        ]
        self._retired: set[int] = set()

    # -- fleet shape ---------------------------------------------------------
    @property
    def n_devices(self) -> int:
        """Devices ever provisioned (retired ones included)."""
        return len(self._horizons)

    @property
    def active_devices(self) -> tuple[int, ...]:
        """Indices of devices currently accepting placements."""
        return tuple(
            d for d in range(self.n_devices) if d not in self._retired
        )

    def add_device(self, *, at: float = 0.0) -> int:
        """Provision a new device whose lanes open at simulated second *at*.

        Returns the new device index (indices are never reused, so event
        logs stay unambiguous).
        """
        if at < 0:
            raise InvalidParameterError(f"boot time must be >= 0, got {at}")
        index = self.n_devices
        self._horizons.append([float(at)] * self.streams_per_device)
        return index

    def retire_device(self, device_index: int) -> None:
        """Stop placing work on a device (committed work keeps its end)."""
        self._check_device(device_index)
        if device_index in self._retired:
            raise InvalidParameterError(
                f"device {device_index} is already retired"
            )
        if len(self._retired) + 1 >= self.n_devices:
            raise InvalidParameterError("cannot retire the last active device")
        self._retired.add(device_index)

    def _check_device(self, device_index: int) -> None:
        if not 0 <= device_index < self.n_devices:
            raise InvalidParameterError(
                f"unknown device {device_index} (fleet has {self.n_devices})"
            )

    def device_idle(self, device_index: int, *, now: float) -> bool:
        """Whether every lane of the device has drained by *now*."""
        self._check_device(device_index)
        return all(h <= now for h in self._horizons[device_index])

    # -- placement -----------------------------------------------------------
    def _candidate_lanes(self, devices) -> list[tuple[int, int]]:
        if devices is None:
            devices = self.active_devices
        lanes = [
            (d, s)
            for d in devices
            if d not in self._retired
            for s in range(self.streams_per_device)
        ]
        if not lanes:
            raise InvalidParameterError("no active device lanes to place on")
        return lanes

    def earliest_start(
        self, *, not_before: float = 0.0, devices=None
    ) -> float:
        """When the next unit of work could start, without committing it."""
        lanes = self._candidate_lanes(devices)
        horizon = min(self._horizons[d][s] for d, s in lanes)
        return max(horizon, not_before)

    def reserve(
        self, *, not_before: float = 0.0, devices=None
    ) -> tuple[int, int, float]:
        """Pick the earliest-available lane without committing to it.

        Returns ``(device, stream, start)``.  The serving layer needs the
        start time *before* the job runs (the duration is only known
        afterwards); it reserves, host-executes, then :meth:`commit`\\ s the
        measured duration.  Nothing else may touch the timeline in between
        — dispatch is host-sequential, so that invariant holds by
        construction.
        """
        lanes = self._candidate_lanes(devices)
        device, stream = min(
            lanes, key=lambda ds: (self._horizons[ds[0]][ds[1]], ds)
        )
        start = max(self._horizons[device][stream], not_before)
        return device, stream, start

    def commit(
        self, device_index: int, stream_index: int, start: float, duration: float
    ) -> LanePlacement:
        """Commit *duration* seconds at *start* to a reserved lane."""
        if duration < 0:
            raise InvalidParameterError(
                f"duration must be >= 0, got {duration}"
            )
        self._check_device(device_index)
        if not 0 <= stream_index < self.streams_per_device:
            raise InvalidParameterError(
                f"unknown stream {stream_index} "
                f"(devices have {self.streams_per_device})"
            )
        if start < self._horizons[device_index][stream_index]:
            raise InvalidParameterError(
                f"start {start} precedes lane horizon "
                f"{self._horizons[device_index][stream_index]}"
            )
        end = start + duration
        self._horizons[device_index][stream_index] = end
        return LanePlacement(device_index, stream_index, start, end)

    def place(
        self, duration: float, *, not_before: float = 0.0, devices=None
    ) -> LanePlacement:
        """Commit *duration* seconds to the earliest-available lane.

        ``start = max(lane horizon, not_before)`` — exactly the batch
        scheduler's rule (where every job has ``not_before=0``), extended
        to late arrivals.  *devices* restricts candidates (breaker-aware
        placement pins a unit to specific devices); retired devices are
        never candidates.
        """
        device, stream, start = self.reserve(
            not_before=not_before, devices=devices
        )
        return self.commit(device, stream, start, duration)

    # -- metrics -------------------------------------------------------------
    def device_makespans(self) -> list[float]:
        """Latest horizon per device (0.0 for a device never used)."""
        return [max(h) for h in self._horizons]

    @property
    def makespan_seconds(self) -> float:
        return max(self.device_makespans(), default=0.0)


def effective_engine_options(job: Job, graph: bool | None) -> dict:
    """The job's engine options with a fleet-wide graph default mixed in.

    The job's own setting always wins; engines without the ``graph=`` knob
    are left alone.  Shared by :class:`~repro.batch.scheduler.BatchScheduler`
    and the serving layer so both dispatch paths build identical engines.
    """
    opts = dict(job.engine_options)
    if graph is not None:
        from repro.engines import engine_supports_graph

        if engine_supports_graph(job.engine):
            opts.setdefault("graph", graph)
    return opts


class RunningJob:
    """One job being stepped iteration-by-iteration by a host loop.

    Construction performs everything ``optimize()`` does before its loop
    (fresh engine, validation, initialisation, optional restore).  The
    host then drives::

        for t in range(rj.start_iter, rj.max_iter):
            if rj.step(t):
                break
        result = rj.finish()

    which is bit-identical to ``engine.optimize(...)`` of the same spec,
    for every engine: the multi-GPU fleet steps like any other.
    Between steps the live best-so-far (:attr:`gbest_value`) is readable —
    the streaming hook — and :meth:`snapshot` captures the full run state
    for checkpoint-backed cancellation; :meth:`finish` accepts a terminal
    *status* override (``"cancelled"``) for runs ended early by the host.
    """

    def __init__(
        self,
        job: Job,
        *,
        engine_options: dict | None = None,
        budget=None,
        guard=None,
        checkpoint=None,
        restore=None,
        injector=None,
    ) -> None:
        from repro.engines import make_engine

        options = (
            dict(job.engine_options)
            if engine_options is None
            else dict(engine_options)
        )
        self.job = job
        self.engine = make_engine(job.engine, **options)
        if injector is not None:
            # Wired before start_run so initialization launches/allocs are
            # counted — the same ordinals a solo faulted run would see.
            self.engine.attach_fault_injector(injector)
        problem = job.resolved_problem()
        spec = dict(
            n_particles=job.n_particles,
            max_iter=job.max_iter,
            params=job.resolved_params,
            # Jobs carry no stop criterion; run_with_recovery's run spec
            # (a Job subclass) may.
            stop=getattr(job, "stop", None),
            record_history=job.record_history,
            budget=budget,
            guard=guard,
            checkpoint=checkpoint,
            restore=restore,
        )
        self._finished = False
        self.run = self.engine.start_run(problem, **spec)

    # -- live views ----------------------------------------------------------
    @property
    def start_iter(self) -> int:
        return self.run.start_iter

    @property
    def max_iter(self) -> int:
        return self.run.max_iter

    @property
    def iterations_run(self) -> int:
        return self.run.iterations_run

    @property
    def gbest_value(self) -> float:
        """Best objective value found so far (valid between steps)."""
        return float(self.run.state.gbest_value)

    # -- driving -------------------------------------------------------------
    def step(self, t: int) -> bool:
        """Run iteration *t*; ``True`` means the run wants to stop."""
        return self.run.step(t)

    def snapshot(self):
        """Capture the in-flight run state (see ``capture_live_run``).

        Raises :class:`~repro.errors.CheckpointError` for problems that
        cannot be rebuilt from a snapshot document (custom objectives).
        """
        from repro.reliability.snapshot import capture_live_run

        return capture_live_run(self.run)

    def finish(self, *, status: str | None = None) -> OptimizeResult:
        """Finalize and assemble the result (idempotent guard included).

        *status* overrides the run's terminal status — the serving layer
        passes ``"cancelled"`` when the host stopped the loop early; the
        best-so-far fields remain valid, matching the budget-expiry
        contract.
        """
        if self._finished:
            raise InvalidParameterError("RunningJob is already finished")
        self._finished = True
        if status is not None:
            self.run.status = status
        return self.run.finish()

    def drive(self) -> OptimizeResult:
        """Step the run to completion and finish it (solo-run equivalent)."""
        for t in range(self.start_iter, self.max_iter):
            if self.step(t):
                break
        return self.finish()


def start_job(
    job: Job,
    *,
    engine_options: dict | None = None,
    budget=None,
    guard=None,
    checkpoint=None,
    restore=None,
    injector=None,
) -> RunningJob:
    """Begin stepped execution of *job* (see :class:`RunningJob`)."""
    return RunningJob(
        job,
        engine_options=engine_options,
        budget=budget,
        guard=guard,
        checkpoint=checkpoint,
        restore=restore,
        injector=injector,
    )
