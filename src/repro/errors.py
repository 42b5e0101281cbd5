"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors such
as :class:`TypeError`.  The sub-hierarchy mirrors the package layout:
simulator faults (:class:`GpuSimError` and children) are kept distinct from
optimizer-level misuse (:class:`OptimizationError` and children) because the
former indicate a resource or launch problem on the simulated device while
the latter indicate a badly posed optimization problem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GpuSimError",
    "DeviceOutOfMemoryError",
    "InvalidLaunchError",
    "AllocationError",
    "MemoryAccessError",
    "MemoryCorruptionError",
    "StreamError",
    "LaunchFailedError",
    "DeviceLostError",
    "OptimizationError",
    "ConfigurationError",
    "InvalidProblemError",
    "InvalidParameterError",
    "UnknownFunctionError",
    "UnknownDeviceError",
    "EvaluationError",
    "BenchmarkError",
    "CalibrationError",
    "CheckpointError",
    "GraphReplayError",
    "ReliabilityError",
    "CircuitOpenError",
    "AdmissionError",
    "JournalError",
    "StalledRunError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Every error can carry *structured context* — which job, simulated
    device, launch ordinal and retry attempt it belongs to — so the batch
    failure tables and the fleet-profile JSON render failures uniformly
    without parsing message strings.  The fields default to ``None`` and are
    filled in by whichever layer knows them (:meth:`with_context` merges,
    never overwrites, so the innermost annotation wins).
    """

    #: Structured context, filled lazily via :meth:`with_context`.
    job: str | None = None
    device: int | None = None
    launch_ordinal: int | None = None
    attempt: int | None = None

    def with_context(
        self,
        *,
        job: str | None = None,
        device: int | None = None,
        launch_ordinal: int | None = None,
        attempt: int | None = None,
    ) -> "ReproError":
        """Attach structured fields (first writer wins); returns ``self``."""
        if job is not None and self.job is None:
            self.job = str(job)
        if device is not None and self.device is None:
            self.device = int(device)
        if launch_ordinal is not None and self.launch_ordinal is None:
            self.launch_ordinal = int(launch_ordinal)
        if attempt is not None and self.attempt is None:
            self.attempt = int(attempt)
        return self

    def to_row(self) -> dict:
        """Uniform JSON-safe row for failure tables and fleet profiles."""
        return {
            "error": type(self).__name__,
            "message": str(self),
            "job": self.job,
            "device": self.device,
            "launch_ordinal": self.launch_ordinal,
            "attempt": self.attempt,
        }


class GpuSimError(ReproError):
    """Base class for errors originating in the GPU simulator substrate."""


class DeviceOutOfMemoryError(GpuSimError):
    """The simulated device cannot satisfy an allocation request.

    Mirrors ``cudaErrorMemoryAllocation``: raised when the requested byte
    count exceeds the free global memory of the simulated device.
    """

    def __init__(self, requested: int, free: int, total: int) -> None:
        self.requested = int(requested)
        self.free = int(free)
        self.total = int(total)
        super().__init__(
            f"out of device memory: requested {requested} bytes, "
            f"{free} free of {total} total"
        )


class InvalidLaunchError(GpuSimError):
    """A kernel launch configuration violates a hardware limit.

    Mirrors ``cudaErrorInvalidConfiguration``: too many threads per block,
    a zero-sized grid, more shared memory than the device provides, etc.
    """


class AllocationError(GpuSimError):
    """An allocator invariant was violated (double free, foreign pointer)."""


class MemoryAccessError(GpuSimError):
    """A device buffer was used after free or outside its bounds."""


class StreamError(GpuSimError):
    """Illegal stream/event operation (e.g. waiting on an unrecorded event)."""


class LaunchFailedError(GpuSimError):
    """A kernel launch failed transiently on the simulated device.

    Mirrors ``cudaErrorLaunchFailure``: the launch configuration was legal
    but the device rejected or aborted it.  Injected by the reliability
    fault harness; retryable.
    """


class DeviceLostError(GpuSimError):
    """The simulated device fell off the bus and every subsequent operation
    on the same context fails.

    Mirrors ``cudaErrorDeviceUnavailable``/ECC-fatal states: the error is
    *sticky* — recovery requires a fresh context (failover to a healthy
    device), not a bare retry.
    """


class MemoryCorruptionError(GpuSimError):
    """An integrity check found corrupted data in a device buffer.

    Raised by the reliability guard when a watched buffer contains values
    that cannot result from a correct run (NaNs written by an injected
    bit-flip).  Retryable from the last checkpoint.
    """


class GraphReplayError(GpuSimError):
    """A launch-graph replay diverged from its captured iteration.

    Raised when the first replayed iteration, or a fused round, consumes a
    different number of Philox blocks than capture recorded.  Live and
    flat accounting run one iteration body, so this indicates a bug in an
    engine's step (iv) (a ``_swarm_numerics`` whose draws depend on the
    accounting mode), never a data-dependent condition — those fall back
    to eager execution during validation instead of raising.
    """


class OptimizationError(ReproError):
    """Base class for optimizer-level failures."""


class ConfigurationError(OptimizationError):
    """A run was configured with values that can never produce a valid
    optimization — non-finite bounds, non-positive sizes, malformed
    hyper-parameters.

    Raised *at construction time* so a bad configuration fails with one
    friendly message instead of a downstream NaN or shape error deep in the
    iteration loop.  :class:`InvalidProblemError` and
    :class:`InvalidParameterError` are its concrete children, so existing
    ``except InvalidProblemError`` call sites keep working while new code
    can catch the whole family with ``except ConfigurationError``.
    """


class InvalidProblemError(ConfigurationError):
    """The optimization problem definition is malformed.

    Examples: non-positive dimensionality, lower bound above upper bound,
    non-finite bounds, an objective that returns the wrong shape.
    """


class InvalidParameterError(ConfigurationError):
    """A PSO hyper-parameter or engine option is outside its legal range."""


class UnknownFunctionError(InvalidParameterError, InvalidProblemError):
    """An unknown benchmark-function name was looked up.

    Inherits from *both* :class:`InvalidParameterError` (the unified
    unknown-name contract every registry shares — engines, policies,
    functions) and :class:`InvalidProblemError` (what
    :func:`repro.functions.get_function` historically raised), so either
    ``except`` clause keeps catching it.
    """


class UnknownDeviceError(InvalidParameterError, ValueError):
    """An unknown device-catalog name was looked up.

    Inherits from *both* :class:`InvalidParameterError` (the unified
    unknown-name contract every registry shares — engines, policies,
    functions, devices) and :class:`ValueError` (what
    :func:`repro.gpusim.device.get_preset` historically raised), so either
    ``except`` clause keeps catching it.
    """


class EvaluationError(OptimizationError):
    """The user evaluation function misbehaved (wrong shape, NaN policy)."""


class BenchmarkError(ReproError):
    """An experiment harness was configured inconsistently."""


class CalibrationError(BenchmarkError):
    """The cost-model calibration harness was misconfigured or failed.

    Raised for empty target sets, unknown parameter names, or a captured
    workload that cannot be extrapolated (e.g. identical sample sizes).
    """


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, corrupt, or incompatible.

    Raised on magic/schema mismatch, CRC failure, or when a snapshot is
    restored into a run whose shape (particles, dimension, engine dtype)
    does not match the one that wrote it.
    """


class ReliabilityError(ReproError):
    """Base class for overload-control failures (breakers, admission)."""


class CircuitOpenError(ReliabilityError):
    """Every eligible device's circuit breaker is open.

    Raised by the retry layer when no healthy device remains to place an
    attempt on and CPU failover is disabled.  Carries structured context
    (job, attempt) via the base class.
    """


class AdmissionError(ReliabilityError):
    """A job was refused admission by the batch scheduler.

    Only raised in ``strict`` admission mode; the default ``degrade`` mode
    records a shed outcome instead of raising.
    """


class JournalError(ReliabilityError):
    """The serving layer's write-ahead journal is unreadable or unwritable.

    Raised when :meth:`~repro.serve.service.OptimizationService.recover`
    cannot open a journal, and carried as the structured error row of
    submissions refused while the service is in degraded read-only mode
    (the journal directory became unwritable mid-flight).
    """


class StalledRunError(ReliabilityError):
    """A running job exceeded its watchdog lease.

    The service marks a run stalled when more than ``watchdog_seconds`` of
    simulated time pass between progress updates (an injected stall, a
    pathological objective).  Stalls are treated as retryable: the attempt
    is abandoned, journaled, and retried under the configured
    :class:`~repro.reliability.retry.RetryPolicy`.
    """
