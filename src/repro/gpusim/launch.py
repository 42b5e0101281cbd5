"""Kernel launch machinery: resource-aware thread creation + grid-stride.

Implements the paper's technique (i).  FastPSO never launches more threads
than the device can keep resident: the thread workload is
``tw = ceil(n_elems / resident_capacity)`` (the practical reading of the
paper's Eq. 3), realised as a grid-stride loop.  Baseline engines instead use
:func:`thread_per_item_config`, which launches exactly one thread per work
item regardless of device capacity — the behaviour the paper identifies as
wasteful for large problems and starving for small ones.

A kernel here is a cost profile (:class:`~repro.gpusim.kernel.KernelSpec`
plus geometry); its numerics belong to the caller.  :class:`Launcher`
accounts one launch in two calls, :meth:`Launcher.hook` (the fault
injector) before the numerics and :meth:`Launcher.charge` (clock, profile,
launch log, graph capture) after them; :meth:`Launcher.launch` is the two
back to back.

Host fast path: launch geometry and modelled cost are pure functions of
``(device, kernel spec, config, n_elems, cost params)``, all immutable, so
:meth:`Launcher.charge` asks the process-wide memos of
:mod:`repro.gpusim.hostcache` directly.  Engines intern their specs there,
so a repeat launch — also a fresh engine's first launch of a shape any
earlier engine ran — is a dictionary hit whose key compares by identity.
Profiling is aggregation-first: the launcher always maintains
per-``(kernel, section)`` accumulators (:class:`LaunchStats`, O(distinct
kernels) memory) and only keeps the full per-launch log when
``record_launches=True`` is requested (the Figure 5 / Table 3 paths that
need individual records).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidLaunchError
from repro.gpusim.clock import SimClock
from repro.gpusim.costmodel import (
    DEFAULT_GPU_COST_PARAMS,
    GpuCostParams,
    KernelCost,
    kernel_cost,
)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.hostcache import memoized
from repro.gpusim.kernel import KernelSpec, LaunchConfig

__all__ = [
    "resource_aware_config",
    "thread_per_item_config",
    "Launcher",
    "LaunchRecord",
    "LaunchStats",
]

DEFAULT_THREADS_PER_BLOCK = 256


@memoized
def resource_aware_config(
    spec: DeviceSpec,
    n_elems: int,
    *,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
    kernel_spec: "KernelSpec | None" = None,
) -> LaunchConfig:
    """FastPSO's launch geometry: saturate the device, never oversubscribe.

    Total threads are capped at the device's resident capacity; the
    kernel's grid-stride loop assigns ``ceil(n_elems / total_threads)``
    elements to each thread (the paper's thread-workload formula).

    When *kernel_spec* is supplied the cap also honours the kernel's own
    occupancy limits (registers, shared memory): the grid never exceeds one
    full wave of resident blocks, so register-heavy kernels don't spill a
    tail of blocks into a second wave.  This is the full reading of the
    paper's "GPU resource-aware thread creation".

    Pure function of immutable inputs, so results are memoized (see
    :mod:`repro.gpusim.hostcache`); ``resource_aware_config.uncached``
    bypasses the cache.
    """
    if n_elems <= 0:
        raise InvalidLaunchError("cannot size a launch for zero elements")
    spec.validate_block(
        threads_per_block,
        kernel_spec.shared_mem_per_block if kernel_spec is not None else 0,
    )
    capacity_threads = spec.max_resident_threads
    if kernel_spec is not None:
        from repro.gpusim.occupancy import occupancy

        theo = occupancy(
            spec,
            threads_per_block,
            registers_per_thread=kernel_spec.registers_per_thread,
            shared_mem_per_block=kernel_spec.shared_mem_per_block,
        )
        capacity_threads = min(
            capacity_threads,
            theo.blocks_per_sm * spec.sm_count * threads_per_block,
        )
    wanted_threads = min(n_elems, capacity_threads)
    blocks = max(1, -(-wanted_threads // threads_per_block))
    return LaunchConfig(grid_blocks=blocks, threads_per_block=threads_per_block)


def thread_per_item_config(
    spec: DeviceSpec,
    n_items: int,
    *,
    threads_per_block: int = DEFAULT_THREADS_PER_BLOCK,
) -> LaunchConfig:
    """Baseline geometry: one thread per work item, however many that is.

    For small swarms this under-fills the device (the inefficiency FastPSO
    fixes); for huge element counts it creates an excessive grid — both are
    faithfully reproduced rather than corrected.
    """
    if n_items <= 0:
        raise InvalidLaunchError("cannot size a launch for zero items")
    spec.validate_block(threads_per_block)
    blocks = max(1, -(-n_items // threads_per_block))
    return LaunchConfig(grid_blocks=blocks, threads_per_block=threads_per_block)


@dataclass(frozen=True)
class LaunchRecord:
    """One completed kernel launch, as stored by the opt-in launch log."""

    kernel_name: str
    n_elems: int
    config: LaunchConfig
    cost: KernelCost
    section: str | None = None


@dataclass
class LaunchStats:
    """Aggregated profile for every launch of one kernel in one section.

    This is the launcher's always-on profiling state: O(1) per distinct
    ``(kernel, section)`` pair regardless of how many launches occur.
    ``seconds`` includes launch overhead; ``body_seconds`` excludes it
    (nvprof's active-cycles convention, used for throughput metrics).
    """

    kernel_name: str
    section: str | None
    launches: int = 0
    total_elems: int = 0
    seconds: float = 0.0
    body_seconds: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    bytes_l2: float = 0.0
    flops: float = 0.0
    occupancy_sum: float = 0.0

    def add(self, cost: KernelCost, n_elems: int) -> None:
        self.launches += 1
        self.total_elems += n_elems
        self.seconds += cost.seconds
        self.body_seconds += cost.seconds - cost.t_launch_overhead
        self.bytes_read += cost.bytes_read
        self.bytes_written += cost.bytes_written
        self.bytes_l2 += cost.bytes_l2
        self.flops += cost.flops
        self.occupancy_sum += cost.occupancy

    def add_many(self, cost: KernelCost, n_elems: int, count: int) -> None:
        """Fold *count* identical launches in one update.

        Used by launch-graph replay, which runs a launch's numerics
        ``count`` times without touching the stats and reconciles the
        profile here when the graph is flushed.
        """
        self.launches += count
        self.total_elems += count * n_elems
        self.seconds += count * cost.seconds
        self.body_seconds += count * (cost.seconds - cost.t_launch_overhead)
        self.bytes_read += count * cost.bytes_read
        self.bytes_written += count * cost.bytes_written
        self.bytes_l2 += count * cost.bytes_l2
        self.flops += count * cost.flops
        self.occupancy_sum += count * cost.occupancy

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_sum / self.launches if self.launches else 0.0


@dataclass
class Launcher:
    """Accounts kernels on a simulated device: fault hook + clock + profile.

    The launcher is the single choke point where simulated time advances for
    kernels; their numerics run in the caller, between :meth:`hook` and
    :meth:`charge`.  By default it keeps only aggregated :class:`LaunchStats`
    (memory O(distinct kernels)); construct with ``record_launches=True`` to
    additionally retain the full per-launch :class:`LaunchRecord` log that
    the Figure 5 / Table 3 experiment paths consume.
    """

    spec: DeviceSpec
    clock: SimClock
    cost_params: GpuCostParams = field(default_factory=lambda: DEFAULT_GPU_COST_PARAMS)
    records: list[LaunchRecord] = field(default_factory=list)
    record_launches: bool = False
    stats: dict[tuple[str, str | None], LaunchStats] = field(default_factory=dict)
    #: Optional :class:`repro.reliability.faults.FaultInjector` consulted
    #: before every launch (may raise injected errors or stall the stream).
    fault_injector: object = field(default=None, repr=False)
    #: Optional capture sink: while set, every launch appends
    #: ``(kernel_name, section, n_elems, config, cost)``.  Launch-graph
    #: capture (:mod:`repro.gpusim.graph`) points this at its record list
    #: for exactly one iteration, then detaches it.
    capture: "list | None" = field(default=None, repr=False)

    def hook(self, kernel_name: str) -> None:
        """The fault hook that precedes a kernel's numerics.

        Consults the attached fault injector (which may raise an injected
        error) and charges any stream stall it returns to the current clock
        section — deliberately *not* to :class:`LaunchStats`: the kernel
        itself runs at its modelled speed.
        """
        if self.fault_injector is not None:
            stall = self.fault_injector.on_launch(kernel_name)
            if stall:
                self.clock.advance(stall)

    def launch(
        self,
        spec: KernelSpec,
        n_elems: int,
        *,
        config: LaunchConfig | None = None,
    ) -> KernelCost:
        """Launch a kernel over *n_elems* elements: :meth:`hook` then
        :meth:`charge`.  The kernel's numerics are the caller's; an engine
        that runs them between the two calls uses
        :class:`~repro.gpusim.graph.LiveLaunch`.  If *config* is omitted the
        resource-aware geometry is used."""
        self.hook(spec.name)
        return self.charge(spec, n_elems, config=config)

    def charge(
        self,
        spec: KernelSpec,
        n_elems: int,
        *,
        config: LaunchConfig | None = None,
        dynamic: bool = False,
    ) -> KernelCost:
        """Charge a kernel's modelled time: the one accounting path.

        Advances the clock in the current section, adds the profile row,
        appends to the opt-in launch log and, while launch-graph capture is
        attached, to its sink.  ``dynamic=True`` marks a data-dependent
        charge (the pbest-position copy, whose size is the number of
        improved particles): the clock traces it as a dynamic slot and the
        capture sink skips it, since a replay charges it live.
        """
        if config is None:
            config = resource_aware_config(
                self.spec, max(1, n_elems), kernel_spec=spec
            )
        # kernel_cost validates the geometry against the device before it
        # costs it, and a memo hit means an equal geometry passed.
        cost = kernel_cost(self.spec, spec, config, n_elems, self.cost_params)
        section = self.clock.current_section
        if dynamic:
            self.clock.advance_dynamic(cost.seconds)
        else:
            if self.capture is not None:
                self.capture.append((spec.name, section, n_elems, config, cost))
            self.clock.advance(cost.seconds)
        stats_key = (spec.name, section)
        bucket = self.stats.get(stats_key)
        if bucket is None:
            bucket = LaunchStats(kernel_name=spec.name, section=section)
            self.stats[stats_key] = bucket
        bucket.add(cost, n_elems)
        if self.record_launches:
            self.records.append(
                LaunchRecord(
                    kernel_name=spec.name,
                    n_elems=n_elems,
                    config=config,
                    cost=cost,
                    section=section,
                )
            )
        return cost

    def reset_records(self) -> None:
        """Drop all profiling state (both the stats and the opt-in log)."""
        self.records.clear()
        self.stats.clear()
