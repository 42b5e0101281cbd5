"""Structured service events: every decision the service makes, recorded.

The serving layer's determinism contract is *replayability*: two runs of
the same seeded session stream must make byte-identical decisions.  The
event log is how that is asserted (the CI serve drill runs the load
generator twice and ``cmp``'s the logs) and how operators audit what the
service did — every submit, admission verdict, dispatch, completion,
cancellation and autoscaling action lands here with an ordinal and its
*virtual* (simulated) timestamp.  Host wall-clock never appears in an
event, so logs are stable across machines.

Ordinals are the causal order the service made decisions in; ``time`` is
the simulated second the decision refers to.  Times are non-decreasing per
job but not globally monotone — a completion at its (future) end time is
logged as soon as the host finishes the run, which can precede a later
submit with an earlier arrival stamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["EVENT_KINDS", "ServiceEvent", "events_to_json"]

#: Every kind of event the service emits, in lifecycle order.
EVENT_KINDS = (
    "submit",      # a job arrived (before any admission verdict)
    "admit",       # admission accepted the job as submitted
    "degrade",     # admission accepted a reduced variant (memory ladder)
    "shed",        # admission or a tenant quota refused the job
    "dispatch",    # the job started on a lane (device/stream/start)
    "stalled",     # a running attempt exceeded its watchdog lease
    "retry",       # a failed/stalled attempt will be retried (backoff)
    "complete",    # the job reached a terminal engine status
    "failed",      # the job raised a contained error before completing
    "cancel",      # a client cancelled the job (queued or running phase)
    "refused",     # submission refused in degraded read-only mode
    "scale_up",    # the autoscaler provisioned a device
    "scale_down",  # the autoscaler retired a device
)


@dataclass(frozen=True)
class ServiceEvent:
    """One recorded service decision."""

    ordinal: int
    time: float
    kind: str
    job_id: int | None = None
    tenant: str | None = None
    detail: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        """JSON-safe dict with a stable key order (byte-compare friendly)."""
        return {
            "ordinal": self.ordinal,
            "time": self.time,
            "kind": self.kind,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_row(cls, row: dict) -> "ServiceEvent":
        """Inverse of :meth:`to_row` (crash recovery decodes the journal)."""
        return cls(**dict(row, detail=dict(row["detail"])))


def events_to_json(events) -> str:
    """Canonical JSON rendering of an event log.

    The exact string the serve drill byte-compares: stable key order,
    two-space indent, trailing newline.  Floats render via Python's
    shortest-round-trip ``repr``, which is deterministic for the virtual
    times and simulated seconds the events carry.
    """
    rows = [event.to_row() for event in events]
    return json.dumps({"events": rows}, indent=2) + "\n"
