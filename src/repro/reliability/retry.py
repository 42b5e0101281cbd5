"""Retry/failover: the one attempt loop behind every host that retries.

:class:`AttemptLoop` is consulted only at attempt boundaries.
:meth:`~AttemptLoop.start` begins attempt N as a fresh
:class:`~repro.batch.dispatch.RunningJob` — a fresh simulated device, so a
sticky device loss clears — choosing the engine (the CPU fallback on the
last attempt, or when placement finds no healthy device), device spec,
fault injector (its ordinals count across attempts) and a restore from the
newest checkpoint, rerun from scratch if that snapshot does not fit.
:meth:`~AttemptLoop.failed` banks the newest checkpoint, charges the lost
work and the backoff, feeds the circuit breaker, annotates the error row
and answers retry or give up.  :func:`run_with_recovery` and
``BatchScheduler`` step each attempt to completion (:func:`drive_attempts`);
``OptimizationService`` steps it with streaming, journal and watchdog.

The hosts' real differences are arguments: *placement* (``health`` +
``preferred`` pick a device per attempt; ``lane`` pins a reserved lane
that yields to the CPU only when its breaker is open) and the *ledger*,
which prices failures in simulated seconds and times breaker events.
:class:`ClockLedger` advances a recovery clock by the lost work, then the
backoff (sections ``lost_work``/``retry_backoff``); :class:`SumLedger`
keeps serve's journaled ``overhead += lost + backoff``.  The two round
differently after a second failure, so each host keeps its own bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.batch.job import Job
from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.results import OptimizeResult
from repro.core.stopping import StopCriterion
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    GpuSimError,
    InvalidParameterError,
    ReproError,
)
from repro.gpusim.clock import SimClock
from repro.reliability.checkpoint import CheckpointManager
from repro.reliability.faults import FaultInjector

__all__ = ["RetryPolicy", "RecoveryReport", "run_with_recovery"]


@dataclass(frozen=True)
class RetryPolicy:
    """How failures are retried: attempts, simulated backoff, CPU fallback.

    ``backoff_seconds`` grows by ``backoff_factor`` per failure (exponential
    backoff), charged to the recovery clock's ``retry_backoff`` section —
    simulated seconds, never wall time.  ``retry_on`` is the tuple of
    exception types considered transient; anything else propagates
    immediately (a bug should crash, not burn retries).
    """

    max_attempts: int = 4
    backoff_seconds: float = 1.0
    backoff_factor: float = 2.0
    cpu_fallback: str | None = "fastpso-seq"
    retry_on: tuple = (GpuSimError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_seconds < 0:
            raise InvalidParameterError("backoff_seconds must be non-negative")
        if self.backoff_factor < 1.0:
            raise InvalidParameterError("backoff_factor must be >= 1")
        if not self.retry_on:
            raise InvalidParameterError("retry_on must name at least one type")

    def backoff_for(self, failure_index: int) -> float:
        """Simulated backoff after the Nth failure (0-based)."""
        return self.backoff_seconds * self.backoff_factor**failure_index

    def fallback_engine(self, engine_name: str) -> str | None:
        """The CPU engine to degrade to, or ``None`` when there is no
        *distinct* fallback (disabled, or the job already runs on it)."""
        if self.cpu_fallback and self.cpu_fallback != engine_name:
            return self.cpu_fallback
        return None


@dataclass
class RecoveryReport:
    """Outcome of :func:`run_with_recovery`: the result plus the price paid."""

    result: OptimizeResult | None
    attempts: int
    engines: tuple = field(repr=False, default=())
    errors: tuple[str, ...] = ()
    fell_back_to_cpu: bool = False
    #: Dedicated clock holding the ``lost_work``/``retry_backoff`` sections.
    recovery_clock: SimClock = field(repr=False, default_factory=SimClock)
    #: Structured ``ReproError.to_row()`` rows, one per failed attempt.
    error_rows: tuple = ()
    #: Simulated device the final attempt ran on (``None`` on CPU fallback
    #: or when no circuit-breaker fleet was supplied).
    device_index: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.result is not None

    @property
    def error(self) -> str | None:
        """Last failure message, or ``None`` for a first-try success."""
        return self.errors[-1] if self.errors else None

    @property
    def engine(self):
        """The engine of the final attempt (its profile covers the result)."""
        return self.engines[-1] if self.engines else None

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def lost_seconds(self) -> float:
        """Simulated seconds computed and discarded with failed attempts."""
        return self.recovery_clock.total("lost_work")

    @property
    def backoff_seconds(self) -> float:
        """Simulated seconds spent backing off between attempts."""
        return self.recovery_clock.total("retry_backoff")

    @property
    def recovery_seconds(self) -> float:
        """Total simulated recovery overhead (lost work + backoff)."""
        return self.recovery_clock.now


def as_retry_policy(retry) -> RetryPolicy | None:
    """A host's ``retry=``: an attempt count becomes a policy; a policy or
    ``None`` passes through; anything else (``True`` included) is refused."""
    if retry is None or isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, int) and not isinstance(retry, bool):
        return RetryPolicy(max_attempts=retry)
    raise InvalidParameterError(
        "retry must be an attempt count or a RetryPolicy, got "
        f"{type(retry).__name__}"
    )


class ClockLedger:
    """Recovery priced on a sectioned clock (run_with_recovery, batch).

    Breaker events sit at ``origin`` (the job's batch position) plus the
    clock; a failure is timed after its lost work, before its backoff.
    """

    def __init__(self, origin: float = 0.0) -> None:
        self.origin = origin
        self.clock = SimClock()

    @property
    def now(self) -> float:
        return self.origin + self.clock.now

    def charge(self, lost: float, backoff: float | None, spent: float):
        """Book a failure (``backoff=None``: giving up); returns its time."""
        with self.clock.section("lost_work"):
            self.clock.advance(lost)
        failed_at = self.now
        if backoff is not None:
            with self.clock.section("retry_backoff"):
                self.clock.advance(backoff)
        return failed_at

    def finished_at(self, elapsed: float) -> float:
        return self.now + elapsed


class SumLedger:
    """Recovery priced as serve's journaled ``overhead += lost + backoff``;
    a give-up is timed at the end of the lane it commits (overhead + spent).
    """

    def __init__(self, origin: float, overhead: float = 0.0) -> None:
        self.origin = origin
        self.overhead = overhead

    @property
    def now(self) -> float:
        return self.origin + self.overhead

    def charge(self, lost: float, backoff: float | None, spent: float):
        """Book a failure (``backoff=None``: giving up); returns its time."""
        if backoff is None:
            return self.origin + (self.overhead + spent)
        failed_at = self.now + spent
        self.overhead += lost + backoff
        return failed_at

    def finished_at(self, elapsed: float) -> float:
        return self.origin + (self.overhead + elapsed)


@dataclass(eq=False)
class AttemptLoop:
    """The attempt state machine over one job (see the module docstring).

    ``policy=None`` is a single attempt with nothing retryable and no CPU
    fallback.  ``options_for(job)`` gives a job's engine options (hosts mix
    in their graph default); ``spec_for(device)`` the spec a GPU attempt on
    *device* runs on.  ``resume_from`` is a snapshot path to start from
    until a checkpoint is banked; ``attempt`` and the ledger's overhead
    carry over when a host resumes a job mid-retry.
    """

    job: Job
    policy: RetryPolicy | None
    ledger: ClockLedger | SumLedger
    options_for: Callable | None = None
    spec_for: Callable | None = None
    injector: FaultInjector | None = None
    checkpoint: CheckpointManager | None = None
    budget: object = None
    guard: object = None
    health: object = None
    preferred: int | None = None
    lane: int | None = None
    resume_from: object = None
    label: str | None = None
    attempt: int = 1
    #: The current attempt: its run, device (``None`` on CPU) and pricing.
    run: object = field(default=None, init=False)
    device: int | None = field(default=None, init=False)
    on_cpu: bool = field(default=False, init=False)
    fell_back: bool = field(default=False, init=False)
    lost: float = field(default=0.0, init=False)
    backoff: float | None = field(default=None, init=False)
    engines: list = field(default_factory=list, init=False)
    errors: list = field(default_factory=list, init=False)
    error_rows: list = field(default_factory=list, init=False)

    @property
    def fallback(self) -> str | None:
        if self.policy is None:
            return None
        return self.policy.fallback_engine(self.job.engine)

    @property
    def retry_on(self) -> tuple:
        """Exception types a failed attempt may be retried for."""
        return self.policy.retry_on if self.policy is not None else ()

    def _note(self, exc: Exception, text: str) -> None:
        if isinstance(exc, ReproError):
            exc.with_context(
                job=self.label, device=self.device, attempt=self.attempt
            )
            self.error_rows.append(exc.to_row())
        self.errors.append(text)

    def _place(self) -> None:
        """Put this attempt on a device, or on the CPU fallback."""
        fallback, now = self.fallback, self.ledger.now
        self.device = None
        self.on_cpu = bool(
            fallback and 1 < self.attempt == self.policy.max_attempts
        )
        if self.on_cpu:
            return
        if self.lane is not None:
            self.device = self.lane
            self.on_cpu = bool(
                fallback
                and self.attempt > 1
                and self.health is not None
                and not self.health.breakers[self.lane].allows(now)
            )
        elif self.health is not None:
            self.device = self.health.pick_device(
                now=now, preferred=self.preferred
            )
            if self.device is None and not fallback:
                exc = CircuitOpenError(
                    f"all {self.health.n_devices} device breaker(s) open; "
                    "no CPU fallback configured"
                )
                self._note(exc, f"attempt {self.attempt}: {exc}")
                raise exc
            self.on_cpu = self.device is None
        if self.on_cpu:
            self.device = None

    def start(self):
        """Begin the current attempt and return its ``RunningJob``.

        Raises :class:`~repro.errors.CircuitOpenError` when no breaker
        admits the attempt and there is no CPU fallback.  Any other error
        is the attempt's failure, exactly as if it had failed mid-run.
        """
        from repro.batch.dispatch import RunningJob
        from repro.engines import engine_accepts_device
        from repro.reliability.checkpoint import read_snapshot

        self.run = None
        self._place()
        job = self.job
        if self.on_cpu:
            self.fell_back = True
            job = job.with_overrides(engine=self.fallback, engine_options={})
        options = (
            self.options_for(job)
            if self.options_for is not None
            else dict(job.engine_options)
        )
        spec = (
            self.spec_for(self.device)
            if self.spec_for is not None and self.device is not None
            else None
        )
        if spec is not None and engine_accepts_device(job.engine):
            options.setdefault("device", spec)
        restore = None
        if self.checkpoint is not None:
            restore = self.checkpoint.load_latest()
        banked = restore is not None
        if restore is None and self.resume_from is not None:
            restore = read_snapshot(self.resume_from)
        kwargs = dict(
            engine_options=options,
            budget=self.budget,
            guard=self.guard,
            checkpoint=self.checkpoint,
            injector=self.injector,
        )
        try:
            self.run = RunningJob(job, restore=restore, **kwargs)
        except CheckpointError:
            if not banked:
                raise
            # The banked snapshot does not fit this attempt's engine (e.g. a
            # CPU fallback reading an fp16-storage checkpoint): rerun from
            # scratch rather than dying on the recovery path itself.
            self.run = RunningJob(job, **kwargs)
        self.engines.append(self.run.engine)
        return self.run

    def failed(self, exc: Exception, *, stalled: bool = False) -> bool:
        """Price the current attempt's failure; ``True`` means retry.

        The newest checkpoint's simulated seconds are banked and the rest
        of the attempt is lost; a retry also serves this failure's backoff
        and moves on to the next attempt.  Stalls count as retryable.
        """
        run = self.run
        if run is not None:
            name = run.engine.name
        else:
            name = self.fallback if self.on_cpu else self.job.engine
        self._note(exc, f"attempt {self.attempt} [{name}]: {exc}")
        spent = float(run.engine.clock.now) if run is not None else 0.0
        latest = None
        if self.checkpoint is not None:
            latest = self.checkpoint.load_latest()
        banked = 0.0 if latest is None else float(latest.clock_state["now"])
        self.lost = max(0.0, spent - banked)
        retry = (
            self.policy is not None
            and (stalled or isinstance(exc, self.policy.retry_on))
            and self.attempt < self.policy.max_attempts
        )
        self.backoff = None
        if retry:
            self.backoff = self.policy.backoff_for(self.attempt - 1)
        failed_at = self.ledger.charge(self.lost, self.backoff, spent)
        # A lane-pinned host charges its lane even for a CPU attempt.
        device = self.device if self.device is not None else self.lane
        if self.health is not None and device is not None:
            self.health.record_failure(device, now=failed_at)
        if retry:
            self.attempt += 1
        return retry

    def succeeded(self, result: OptimizeResult) -> None:
        """Close the attempt: a GPU success resets its device's breaker."""
        if self.health is not None and self.device is not None:
            now = self.ledger.finished_at(result.elapsed_seconds)
            self.health.record_success(self.device, now=now)

    def report(self, result: OptimizeResult | None) -> RecoveryReport:
        """The :class:`RecoveryReport` of a :class:`ClockLedger` loop."""
        return RecoveryReport(
            result=result,
            attempts=self.attempt,
            engines=tuple(self.engines),
            errors=tuple(self.errors),
            fell_back_to_cpu=self.fell_back,
            recovery_clock=self.ledger.clock,
            error_rows=tuple(self.error_rows),
            device_index=self.device if result is not None else None,
        )


def drive_attempts(loop: AttemptLoop) -> RecoveryReport:
    """Step each attempt of *loop* to completion (run_with_recovery, batch).

    Exceptions outside the policy's ``retry_on`` propagate unchanged — all
    of them when the loop has no policy.
    """
    while True:
        try:
            result = loop.start().drive()
        except CircuitOpenError:
            return loop.report(None)
        except loop.retry_on as exc:
            if loop.failed(exc):
                continue
            return loop.report(None)
        loop.succeeded(result)
        return loop.report(result)


@dataclass(frozen=True)
class _StopJob(Job):
    """A :class:`Job` carrying the extra stop criterion that
    :func:`run_with_recovery` accepts (``RunningJob`` passes it on)."""

    stop: StopCriterion | None = None


def run_with_recovery(
    *,
    engine_name: str,
    problem: Problem,
    n_particles: int,
    max_iter: int,
    params: PSOParams = PAPER_DEFAULTS,
    stop: StopCriterion | None = None,
    record_history: bool = False,
    engine_options: dict | None = None,
    policy: RetryPolicy | None = None,
    injector: FaultInjector | None = None,
    checkpoint: CheckpointManager | None = None,
    budget=None,
    guard=None,
    health=None,
    job_label: str | None = None,
    preferred_device: int | None = None,
    base_now: float = 0.0,
) -> RecoveryReport:
    """Run one optimization under *policy*, retrying transient failures.

    Never raises for exceptions in ``policy.retry_on``: after the attempt
    budget is exhausted the report carries ``result=None`` and the error
    trail.  Other exceptions propagate unchanged.

    With a *checkpoint* manager, every attempt resumes from the newest
    readable snapshot and keeps checkpointing as it goes, so repeated
    faults only ever lose work since the last checkpoint.  The *injector*
    (if any) is re-attached to each fresh engine; its fault ordinals count
    across attempts, so one-shot faults don't re-fire on the retried run.

    ``budget``/``guard`` pass straight through to the engine run — a
    budgeted attempt that expires returns a normal result with a
    ``status`` instead of raising, so it never burns a retry.

    ``health`` (a :class:`~repro.reliability.breaker.FleetHealth`) places
    each attempt on a device whose circuit breaker admits work: failures
    feed the breaker, so a device that keeps failing trips open and stops
    receiving attempts; when *every* breaker is open the run degrades
    straight to the CPU fallback (or fails with
    :class:`~repro.errors.CircuitOpenError` if there is none).  Breaker
    time is ``base_now`` plus this job's simulated recovery overhead, so
    trip/cool-down ordinals are deterministic for a fixed workload.
    """
    if not isinstance(problem, Problem):
        raise InvalidParameterError("run_with_recovery() requires a Problem")
    job = _StopJob(
        problem=problem,
        dim=problem.dim,
        n_particles=n_particles,
        max_iter=max_iter,
        engine=engine_name,
        params=params,
        record_history=record_history,
        engine_options=engine_options or {},
        stop=stop,
    )
    return drive_attempts(
        AttemptLoop(
            job,
            policy=policy or RetryPolicy(),
            ledger=ClockLedger(base_now),
            injector=injector,
            checkpoint=checkpoint,
            budget=budget,
            guard=guard,
            health=health,
            preferred=preferred_device,
            label=job_label,
        )
    )
