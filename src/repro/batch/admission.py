"""Admission control and load shedding for the batch scheduler.

An oversubscribed fleet should degrade *deterministically*, not queue
unboundedly or die mid-run on a device OOM.  Before executing anything,
:class:`BatchScheduler` runs the submitted jobs through an
:class:`AdmissionPolicy`, which considers them in **priority order**
(higher ``Job.priority`` first, submission order breaking ties) and issues
one :class:`AdmissionDecision` per job:

* ``"admit"`` — run the job as submitted;
* ``"degrade"`` — run a *reduced* variant: the swarm is halved (down to
  ``min_particles``) and, for the fastpso engine, storage drops to fp16 —
  the same degradation ladder a capacity-squeezed service would apply;
* ``"shed"`` — don't run the job at all; it gets a terminal ``"shed"``
  outcome with the reason recorded.

Two resources are policed.  The **queue bound** (``max_queue``) caps how
many jobs one batch may execute; overflow jobs — the lowest-priority,
latest-submitted ones — are shed.  The **memory check** compares each
job's estimated worst-case device residency (swarm arrays plus allocator
slack, times the lanes that could run concurrently) against the device
capacity; jobs that would not fit are degraded down the ladder until they
do, or shed in ``"degrade"`` mode / refused with
:class:`~repro.errors.AdmissionError` in ``"strict"`` mode.

Every decision is pure arithmetic over the job list — no clocks, no
randomness — so re-running the same workload reproduces byte-identical
decisions, which the overload drill asserts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.job import Job
from repro.errors import AdmissionError, ConfigurationError

__all__ = [
    "ADMISSION_MODES",
    "AdmissionDecision",
    "AdmissionPolicy",
    "estimate_job_bytes",
    "estimate_group_bytes",
]

ADMISSION_MODES = ("degrade", "strict")

#: The reason :meth:`AdmissionPolicy.admit_one` gives when it admits a
#: job unchanged.
ADMIT_REASON = "fits"

#: Allocator slack: size-class rounding plus transient eval scratch.
_SLACK = 1.25


def estimate_job_bytes(job: Job) -> int:
    """Worst-case device residency of one job, in bytes.

    Three ``(n, d)`` swarm arrays (positions, velocities, pbest positions),
    the float64 pbest values, a float32 eval scratch vector, padded by the
    allocator-slack factor.  fp16 storage (the ``half_storage`` option /
    ``fastpso-fp16`` alias) halves the array itemsize.
    """
    options = dict(job.engine_options)
    half = bool(options.get("half_storage")) or job.engine == "fastpso-fp16"
    itemsize = 2 if half else 4
    n, d = job.n_particles, job.dim
    arrays = 3 * n * d * itemsize + 8 * n + 4 * n
    return int(np.ceil(arrays * _SLACK))


def estimate_group_bytes(jobs) -> int:
    """Worst-case device residency of one *fused group*, in bytes.

    A fused group (``policy="fused"``) is priced as a unit, not per job:
    every member's persistent swarm arrays are resident at once, **plus**
    the ``m*n x d`` per-round working set on top — every member's
    random-weight pair in storage precision and two float32 update
    scratch planes, and a float64 plane for the stacked evaluation.  Same
    allocator-slack factor as :func:`estimate_job_bytes`, so a group of
    one degenerates to roughly the solo estimate plus its stacking
    overhead.
    """
    persistent = 0
    stacked = 0
    for job in jobs:
        options = dict(job.engine_options)
        half = bool(options.get("half_storage")) or job.engine == "fastpso-fp16"
        itemsize = 2 if half else 4
        n, d = job.n_particles, job.dim
        persistent += 3 * n * d * itemsize + 8 * n + 4 * n
        # Stacked rows this member contributes: weights (2 planes, storage
        # precision), update scratch (2 planes, f32), f64 eval positions.
        stacked += n * d * (2 * itemsize + 2 * 4 + 8)
    return int(np.ceil((persistent + stacked) * _SLACK))


@dataclass(frozen=True)
class AdmissionDecision:
    """One job's fate at admission time."""

    submit_order: int
    label: str
    priority: int
    action: str  # "admit" | "degrade" | "shed"
    reason: str
    #: The job to actually execute (degraded variant for "degrade";
    #: ``None`` for "shed").
    job: Job | None

    def to_row(self) -> dict:
        return {
            "submit_order": self.submit_order,
            "label": self.label,
            "priority": self.priority,
            "action": self.action,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounded-queue + memory-pressure admission for one batch.

    ``mode``
        ``"degrade"`` (default) sheds/degrades deterministically;
        ``"strict"`` raises :class:`AdmissionError` instead of shedding.
    ``max_queue``
        Most jobs one batch may execute (``None`` = unbounded).
    ``memory_limit_bytes``
        Per-device capacity the memory check uses; defaults to the
        simulated device's global memory times ``memory_fraction``.
    ``memory_fraction``
        Safety margin below hard capacity when no explicit limit is given.
    ``min_particles``
        Floor below which the degradation ladder stops halving the swarm.
    """

    mode: str = "degrade"
    max_queue: int | None = None
    memory_limit_bytes: int | None = None
    memory_fraction: float = 0.9
    min_particles: int = 32

    def __post_init__(self) -> None:
        if self.mode not in ADMISSION_MODES:
            raise ConfigurationError(
                f"unknown admission mode {self.mode!r}; "
                f"choose from {ADMISSION_MODES}"
            )
        if self.max_queue is not None and self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigurationError(
                f"memory_fraction must be in (0, 1], got {self.memory_fraction}"
            )
        if self.min_particles < 1:
            raise ConfigurationError(
                f"min_particles must be >= 1, got {self.min_particles}"
            )

    # -- the gate ----------------------------------------------------------
    def capacity_bytes(self, device_mem_bytes: int) -> int:
        if self.memory_limit_bytes is not None:
            return int(self.memory_limit_bytes)
        return int(device_mem_bytes * self.memory_fraction)

    def plan(
        self,
        jobs: list[Job],
        *,
        streams_per_device: int,
        device_mem_bytes: int,
        groups=None,
    ) -> list[AdmissionDecision]:
        """Decide every job's fate; returns decisions in submission order.

        Jobs are considered highest-priority-first (submission order breaks
        ties); the queue bound keeps the first ``max_queue`` of that order
        and sheds the rest, then each survivor walks the memory ladder.

        *groups* (index lists from
        :func:`repro.batch.fused.plan_fused_groups`) makes the memory check
        group-aware: a fused group shares one lane and one stacked tensor
        set, so its queue survivors are priced together via
        :func:`estimate_group_bytes` and walk the degradation ladder
        **coherently** — one halving step reduces every member's swarm at
        once (a half-degraded group would break the fusion-compatibility
        key and silently fall back to ``m`` solo lanes, which is the
        opposite of what admission under memory pressure wants).
        """
        order = sorted(
            range(len(jobs)), key=lambda i: (-jobs[i].priority, i)
        )
        capacity = self.capacity_bytes(device_mem_bytes)
        decisions: dict[int, AdmissionDecision] = {}

        for rank, i in enumerate(order):
            job = jobs[i]
            if self.max_queue is not None and rank >= self.max_queue:
                decisions[i] = self._refuse(
                    i,
                    job,
                    reason=(
                        f"queue bound {self.max_queue} exceeded "
                        f"(priority rank {rank})"
                    ),
                )

        group_of: dict[int, tuple[int, ...]] = {}
        if groups:
            for group in groups:
                survivors = tuple(i for i in group if i not in decisions)
                if len(survivors) >= 2:
                    for i in survivors:
                        group_of[i] = survivors

        fitted: dict[tuple[int, ...], dict[int, AdmissionDecision]] = {}
        for i in order:
            if i in decisions:
                continue
            group = group_of.get(i)
            if group is None:
                decisions[i] = self._fit_memory(
                    i, jobs[i], capacity=capacity, lanes=streams_per_device
                )
                continue
            if group not in fitted:
                fitted[group] = self._fit_group_memory(
                    group, jobs, capacity=capacity, lanes=streams_per_device
                )
            decisions[i] = fitted[group][i]
        return [decisions[i] for i in range(len(jobs))]

    def admit_one(
        self,
        job: Job,
        *,
        submit_order: int,
        streams_per_device: int,
        device_mem_bytes: int,
        queue_depth: int = 0,
    ) -> AdmissionDecision:
        """Decide one job's fate at arrival time (the serving-layer gate).

        Where :meth:`plan` gates a *closed* batch (priority-ranked as a
        set), a service admits jobs one at a time as they arrive:
        *queue_depth* is the number of jobs already waiting — when it has
        reached ``max_queue`` the arrival is shed (or refused in
        ``"strict"`` mode), otherwise the job walks the same memory ladder
        a batch job would.  Pure arithmetic, so identical arrival sequences
        reproduce identical decisions.
        """
        if self.max_queue is not None and queue_depth >= self.max_queue:
            return self._refuse(
                submit_order,
                job,
                reason=(
                    f"queue bound {self.max_queue} exceeded "
                    f"(depth {queue_depth})"
                ),
            )
        return self._fit_memory(
            submit_order,
            job,
            capacity=self.capacity_bytes(device_mem_bytes),
            lanes=streams_per_device,
        )

    def _refuse(self, index: int, job: Job, *, reason: str) -> AdmissionDecision:
        if self.mode == "strict":
            raise AdmissionError(
                f"job {job.label!r} refused admission: {reason}"
            ).with_context(job=job.label)
        return AdmissionDecision(
            submit_order=index,
            label=job.label,
            priority=job.priority,
            action="shed",
            reason=reason,
            job=None,
        )

    def _fit_memory(
        self, index: int, job: Job, *, capacity: int, lanes: int
    ) -> AdmissionDecision:
        """Admit the job, walking the degradation ladder if it won't fit.

        The worst case modelled: every lane of the device runs a job this
        size concurrently, so the job fits when ``lanes * estimate`` stays
        under capacity.
        """

        def fits(candidate: Job) -> bool:
            return lanes * estimate_job_bytes(candidate) <= capacity

        if fits(job):
            return AdmissionDecision(
                submit_order=index,
                label=job.label,
                priority=job.priority,
                action="admit",
                reason=ADMIT_REASON,
                job=job,
            )

        # Ladder rung 1: halve the swarm (repeatedly) down to the floor.
        candidate = job
        steps: list[str] = []
        n = candidate.n_particles
        while n > self.min_particles:
            n = max(self.min_particles, n // 2)
            candidate = candidate.with_overrides(n_particles=n)
            steps.append(f"n_particles->{n}")
            if fits(candidate):
                return self._degraded(index, job, candidate, steps)

        # Ladder rung 2: fp16 storage (fastpso element-wise engine only).
        if candidate.engine == "fastpso" and not dict(
            candidate.engine_options
        ).get("half_storage"):
            options = dict(candidate.engine_options)
            options["half_storage"] = True
            candidate = candidate.with_overrides(engine_options=options)
            steps.append("half_storage")
            if fits(candidate):
                return self._degraded(index, job, candidate, steps)

        estimate = estimate_job_bytes(job)
        return self._refuse(
            index,
            job,
            reason=(
                f"memory: {lanes} lane(s) x {estimate} B exceeds "
                f"capacity {capacity} B even fully degraded"
            ),
        )

    def _fit_group_memory(
        self, indices: tuple[int, ...], jobs, *, capacity: int, lanes: int
    ) -> dict[int, AdmissionDecision]:
        """Fit a fused group as one unit, degrading all members in lockstep.

        The group occupies a single lane, so the concurrency worst case is
        ``lanes`` *groups* of this footprint — the same ``lanes *
        estimate`` rule as solo jobs, with :func:`estimate_group_bytes`
        pricing the stacked tensors.  Every ladder step applies to all
        members (shared ``n_particles`` target, then the fp16 rung only
        when every member is eligible), so the survivors still share a
        fusion key.  An unfittable group is shed whole.
        """
        members = [jobs[i] for i in indices]

        def fits(candidates: list[Job]) -> bool:
            return lanes * estimate_group_bytes(candidates) <= capacity

        if fits(members):
            return {
                i: AdmissionDecision(
                    submit_order=i,
                    label=jobs[i].label,
                    priority=jobs[i].priority,
                    action="admit",
                    reason="fits (fused group)",
                    job=jobs[i],
                )
                for i in indices
            }

        candidates = list(members)
        steps: list[str] = []
        n = max(job.n_particles for job in candidates)
        while n > self.min_particles:
            n = max(self.min_particles, n // 2)
            candidates = [
                job.with_overrides(n_particles=min(n, job.n_particles))
                for job in candidates
            ]
            steps.append(f"n_particles->{n}")
            if fits(candidates):
                return self._group_degraded(indices, jobs, candidates, steps)

        if all(
            job.engine == "fastpso"
            and not dict(job.engine_options).get("half_storage")
            for job in candidates
        ):
            candidates = [
                job.with_overrides(
                    engine_options={
                        **dict(job.engine_options),
                        "half_storage": True,
                    }
                )
                for job in candidates
            ]
            steps.append("half_storage")
            if fits(candidates):
                return self._group_degraded(indices, jobs, candidates, steps)

        estimate = estimate_group_bytes(members)
        return {
            i: self._refuse(
                i,
                jobs[i],
                reason=(
                    f"memory: {lanes} lane(s) x {estimate} B "
                    f"(fused group of {len(members)}) exceeds "
                    f"capacity {capacity} B even fully degraded"
                ),
            )
            for i in indices
        }

    def _group_degraded(
        self, indices, jobs, candidates, steps
    ) -> dict[int, AdmissionDecision]:
        reason = "memory: " + ", ".join(steps) + " (fused group)"
        return {
            i: AdmissionDecision(
                submit_order=i,
                label=jobs[i].label,
                priority=jobs[i].priority,
                action="degrade",
                reason=reason,
                job=candidate,
            )
            for i, candidate in zip(indices, candidates)
        }

    @staticmethod
    def _degraded(
        index: int, original: Job, candidate: Job, steps: list[str]
    ) -> AdmissionDecision:
        return AdmissionDecision(
            submit_order=index,
            label=original.label,
            priority=original.priority,
            action="degrade",
            reason="memory: " + ", ".join(steps),
            job=candidate,
        )
