"""Per-device circuit breakers for the simulated fleet.

A device that keeps failing under fault injection should stop receiving
work instead of being retried into the ground.  Each simulated device gets
a :class:`CircuitBreaker` with the classic three-state machine:

* **closed** — healthy; work flows.  Consecutive failures count up; at
  ``failure_threshold`` the breaker trips **open**.
* **open** — no work is placed on the device until ``cooldown_seconds`` of
  *simulated* time have passed since the trip.
* **half-open** — after the cool-down one probe attempt is allowed
  through; success closes the breaker, failure re-opens it (and restarts
  the cool-down).

All transitions happen in simulated time, so a drill with a fixed seed
reproduces the exact same trip/close ordinals run after run.
:class:`FleetHealth` aggregates one breaker per device, picks the next
healthy device for an attempt, and keeps an ordinal-numbered event log that
feeds the fleet profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["BreakerPolicy", "CircuitBreaker", "FleetHealth"]


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/cool-down configuration shared by a fleet's breakers."""

    #: Consecutive failures that trip a closed breaker open.
    failure_threshold: int = 3
    #: Simulated seconds an open breaker waits before allowing a probe.
    cooldown_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds <= 0:
            raise ConfigurationError(
                f"cooldown_seconds must be > 0, got {self.cooldown_seconds}"
            )


class CircuitBreaker:
    """Three-state breaker for one device (closed → open → half-open)."""

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = "closed"
        self.failures = 0  # consecutive, in the closed state
        self.opened_at: float | None = None

    def allows(self, now: float) -> bool:
        """Whether an attempt may be placed on this device at *now*.

        An open breaker whose cool-down has elapsed transitions to
        half-open (and admits exactly the probe attempt that asked).
        """
        if self.state == "open":
            assert self.opened_at is not None
            if now - self.opened_at >= self.policy.cooldown_seconds:
                self.state = "half_open"
        return self.state != "open"

    def record_success(self, now: float) -> bool:
        """An attempt on this device succeeded; True if this closed it."""
        reopened = self.state == "half_open"
        self.state = "closed"
        self.failures = 0
        self.opened_at = None
        return reopened

    def record_failure(self, now: float) -> bool:
        """An attempt on this device failed; True if this tripped it open."""
        if self.state == "half_open":
            # The probe failed: straight back to open, fresh cool-down.
            self.state = "open"
            self.opened_at = now
            return True
        self.failures += 1
        if self.failures >= self.policy.failure_threshold:
            self.state = "open"
            self.opened_at = now
            self.failures = 0
            return True
        return False


class FleetHealth:
    """One breaker per simulated device plus a deterministic event log.

    The scheduler/retry layer asks :meth:`pick_device` for the next
    attempt's placement: the preferred device if its breaker admits work,
    otherwise the lowest-numbered healthy device (deterministic — no
    randomness, so a drill re-run reproduces identical placements).  When
    every breaker is open, ``None`` comes back and the caller falls over
    to the CPU or records a failure.
    """

    def __init__(
        self, n_devices: int, policy: BreakerPolicy | None = None
    ) -> None:
        if n_devices < 1:
            raise ConfigurationError(
                f"need at least one device, got {n_devices}"
            )
        self.policy = policy or BreakerPolicy()
        self.breakers = [CircuitBreaker(self.policy) for _ in range(n_devices)]
        self.events: list[dict] = []
        self._ordinal = 0

    @property
    def n_devices(self) -> int:
        return len(self.breakers)

    def _log(self, device: int, event: str, now: float) -> None:
        self.events.append(
            {
                "ordinal": self._ordinal,
                "device": device,
                "event": event,
                "sim_seconds": round(float(now), 9),
            }
        )
        self._ordinal += 1

    def add_device(self) -> None:
        """Give a newly provisioned device a closed breaker."""
        self.breakers.append(CircuitBreaker(self.policy))

    def pick_device(
        self, *, now: float, preferred: int | None = None
    ) -> int | None:
        """The device the next attempt should run on, or ``None`` if all
        breakers are open."""
        order = list(range(self.n_devices))
        if preferred is not None and 0 <= preferred < self.n_devices:
            order.remove(preferred)
            order.insert(0, preferred)
        for device in order:
            if self.breakers[device].allows(now):
                return device
        return None

    def record_success(self, device: int, *, now: float) -> None:
        if self.breakers[device].record_success(now):
            self._log(device, "close", now)

    def record_failure(self, device: int, *, now: float) -> None:
        if self.breakers[device].record_failure(now):
            self._log(device, "open", now)

    def open_devices(self) -> tuple[int, ...]:
        return tuple(
            i for i, b in enumerate(self.breakers) if b.state == "open"
        )

    def to_rows(self) -> list[dict]:
        """The breaker event log (trip/close ordinals) for the profile."""
        return [dict(row) for row in self.events]
