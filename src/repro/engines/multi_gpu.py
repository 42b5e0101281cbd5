"""Multi-GPU FastPSO via particle splitting (paper Section 3.5).

The swarm is partitioned into one sub-swarm per simulated device.  Each
sub-swarm runs the ordinary element-wise FastPSO steps on its own device
(its own clock, allocator and Philox stream — streams are disjoint by
construction, see :class:`repro.gpusim.rng.ParallelRNG`), maintaining its
*local* global-best.  Every ``exchange_interval`` iterations the devices
reconcile: the best local gbest is broadcast over PCIe and injected into
every sub-swarm.  Between exchanges devices never wait on each other, so
end-to-end time is the *slowest device's* timeline plus the exchange costs
— the asynchronous behaviour the paper describes as the advantage of this
strategy over the per-iteration-synchronised tile-matrix approach.

A fleet run is an ordinary stepped run (:class:`~repro.core.engine.
EngineRun`): its state is a :class:`_Fleet` of per-device shards, its clock
the :class:`_FleetClock` view over the device clocks, and its runner a
:class:`_FleetRunner` that steps every device's own
:class:`~repro.gpusim.graph.IterationRunner` — the unmodified
:class:`FastPSOEngine` iteration — then guards each shard and runs the
scheduled exchange.  Numerics per sub-swarm are therefore identical to
single-GPU FastPSO, and every host that steps runs (batch, serve) runs a
fleet like any other engine.
"""

from __future__ import annotations

import contextlib
from types import MappingProxyType

import numpy as np

from repro.core.engine import Engine, EngineRun
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.engines.gpu_elementwise import FastPSOEngine
from repro._compat import deprecated_kwargs
from repro.errors import InvalidParameterError
from repro.gpusim.costmodel import GpuCostParams
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import IterationRunner
from repro.gpusim.multigpu import ExchangeCost, partition_particles

__all__ = ["MultiGpuFastPSOEngine"]

#: Why a fleet run takes no checkpoint and no restore: it spans several
#: Philox streams and device timelines, and a single RunSnapshot cannot
#: express it (yet).  The serving layer refuses a job it would checkpoint
#: with the same message, at submit.
CHECKPOINT_REFUSAL = (
    "checkpoint/resume is not supported by the multi-GPU engine; "
    "use a single-device engine from the fastpso family"
)

#: Why a fleet refuses ``corrupt`` faults: it watches no shard buffer, so
#: such a fault would be logged as fired yet damage nothing.
CORRUPT_REFUSAL = (
    "corrupt faults are not supported by the multi-GPU engine, which "
    "watches no shard buffer for them to damage; use a single-device "
    "engine from the fastpso family"
)


class _FleetClock:
    """Read-only clock view over the whole fleet.

    The multi-GPU timeline is the slowest device's clock plus the exchange
    costs, so ``elapsed_seconds``, a simulated-time budget and a serving
    host's progress stamps all measure the same quantity.  The view
    advances nothing itself, so it holds no section totals of its own (a
    fleet profile sums the device clocks); :meth:`total` reports the
    slowest device's, with the exchanges in ``gbest``.
    """

    section_totals = MappingProxyType({})

    def __init__(self, workers) -> None:
        self._clocks = [w.clock for w in workers]
        self.exchange_seconds = 0.0

    @property
    def now(self) -> float:
        return max(c.now for c in self._clocks) + self.exchange_seconds

    def reset(self) -> None:
        for clock in self._clocks:
            clock.reset()
        self.exchange_seconds = 0.0

    def section(self, label: str):
        # Each device charges its own section (see _initialize).
        return contextlib.nullcontext()

    def total(self, label: str) -> float:
        slowest = max(self._clocks, key=lambda c: c.now)
        extra = self.exchange_seconds if label == "gbest" else 0.0
        return slowest.total(label) + extra


class _Fleet:
    """A fleet run's state: one :class:`SwarmState` shard per device and
    the best value and position the last exchange broadcast.

    ``gbest_value``/``gbest_position``/``pbest_values`` are the fleet-wide
    views the run's bookkeeping reads (history, stop criteria, budget, the
    result).
    """

    __slots__ = ("shards", "best_value", "best_position")

    def __init__(self, shards, dim: int) -> None:
        self.shards = shards
        self.best_value = np.inf
        self.best_position = np.zeros(dim, dtype=np.float32)

    @property
    def leader(self):
        """The shard holding the best local gbest (the first on ties)."""
        return min(self.shards, key=lambda s: s.gbest_value)

    @property
    def gbest_value(self) -> float:
        return min(self.best_value, self.leader.gbest_value)

    @property
    def gbest_position(self) -> np.ndarray:
        leader = self.leader
        if leader.gbest_value < self.best_value:
            return leader.gbest_position
        return self.best_position

    @property
    def pbest_values(self) -> np.ndarray:
        return np.concatenate([s.pbest_values for s in self.shards])


class _FleetRunner:
    """Steps a fleet run: every device's own runner, then the guard on
    each shard with that shard's Philox stream, then the scheduled
    exchange.  The run's bookkeeping (history, callback, stop, budget)
    follows in :meth:`EngineRun.after_iteration`.

    Each device keeps its own graph lifecycle (launcher, allocator pool,
    stream); ``phase`` and ``info`` report the first device's.
    """

    def __init__(self, engine, run: EngineRun, eager_reason) -> None:
        self.engine = engine
        self.fleet = run.state
        self.problem = run.problem
        self.max_iter = run.max_iter
        self.rngs = run.rng
        # Exchanges only rewrite gbest state between iterations, which
        # replay reads dynamically, so they don't block graph eligibility.
        self.runners = [
            IterationRunner(
                worker, run.problem, run.params, shard, rng,
                eager_reason=eager_reason,
            )
            for worker, shard, rng in zip(
                engine.workers, self.fleet.shards, self.rngs
            )
        ]
        self.info = engine.graph_info = self.runners[0].info
        # The guard inspects shards, before the exchange, so it moves from
        # the run's bookkeeping to this runner; the callback is handed the
        # leader shard, the closest analogue of the single-GPU state.
        self.guard, run.guard = run.guard, None
        if run.callback is not None:
            callback = run.callback
            run.callback = lambda t, fleet: callback(t, fleet.leader)

    @property
    def phase(self) -> str:
        return self.runners[0].phase

    def run_iteration(self, t: int) -> None:
        engine = self.engine
        progress = engine._progress
        for worker, runner in zip(engine.workers, self.runners):
            worker._progress = progress
            runner.run_iteration(t)
        if self.guard is not None:
            for shard, rng in zip(self.fleet.shards, self.rngs):
                self.guard.inspect(shard, self.problem, rng, iteration=t)
        if (t + 1) % engine.exchange_interval == 0 or t == self.max_iter - 1:
            engine._exchange_best(self.fleet)

    def on_stop(self) -> None:
        # A run ended by its bookkeeping reconciles the devices once more.
        self.engine._exchange_best(self.fleet)

    def finalize(self) -> None:
        for runner in self.runners:
            runner.finalize()


class MultiGpuFastPSOEngine(Engine):
    """Particle-splitting FastPSO across several simulated devices."""

    is_gpu = True
    supports_graph = True

    @deprecated_kwargs(spec="device")
    def __init__(
        self,
        n_devices: int = 2,
        device: DeviceSpec | None = None,
        *,
        exchange_interval: int = 50,
        backend: str = "global",
        caching: bool = True,
        cost_params: GpuCostParams | None = None,
        record_launches: bool = False,
        graph: bool = True,
    ) -> None:
        super().__init__()
        if n_devices < 1:
            raise InvalidParameterError(
                f"need at least one device, got {n_devices}"
            )
        if exchange_interval < 1:
            raise InvalidParameterError(
                f"exchange_interval must be >= 1, got {exchange_interval}"
            )
        self.n_devices = n_devices
        self.exchange_interval = exchange_interval
        self.graph_enabled = bool(graph)
        self.workers = [
            FastPSOEngine(
                device,
                backend=backend,
                caching=caching,
                cost_params=cost_params,
                record_launches=record_launches,
                graph=graph,
            )
            for _ in range(n_devices)
        ]
        for index, worker in enumerate(self.workers):
            worker.ctx.device_index = index
        self.name = f"fastpso-mgpu{n_devices}"
        self.clock = _FleetClock(self.workers)
        self._exchange = ExchangeCost(self.workers[0].ctx.spec)

    def attach_fault_injector(self, injector) -> None:
        # One injector spans all worker devices: launch/alloc ordinals count
        # across the whole engine, and a device-lost fault takes down the
        # entire multi-GPU run.  The fleet watches no shard buffer, so the
        # injector stays off the run's integrity check (see _graph_blockers)
        # and a corrupt fault is refused here rather than left to fizzle.
        if any(spec.kind == "corrupt" for spec in injector.specs):
            raise InvalidParameterError(CORRUPT_REFUSAL)
        injector.on_new_device()
        for worker in self.workers:
            worker.ctx.attach_fault_injector(injector)

    def _graph_blockers(self) -> str | None:
        # Every device is built alike and carries the fleet's injector.
        return self.workers[0]._graph_blockers()

    def start_run(
        self,
        problem: Problem,
        *,
        n_particles: int,
        checkpoint=None,
        restore=None,
        **kwargs,
    ) -> EngineRun:
        if checkpoint is not None or restore is not None:
            raise InvalidParameterError(CHECKPOINT_REFUSAL)
        if n_particles < self.n_devices:
            raise InvalidParameterError(
                f"cannot split {n_particles} particles over "
                f"{self.n_devices} devices"
            )
        return super().start_run(problem, n_particles=n_particles, **kwargs)

    def _make_rng(self, seed: int) -> list:
        # One Philox stream per device, namespaced by its device index.
        return [worker.ctx.make_rng(seed) for worker in self.workers]

    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: list
    ) -> _Fleet:
        shards = []
        sizes = partition_particles(n_particles, self.n_devices)
        for worker, size, worker_rng in zip(self.workers, sizes, rng):
            worker._progress = 0.0
            with worker.clock.section("init"):
                shards.append(
                    worker._initialize(problem, params, size, worker_rng)
                )
        return _Fleet(shards, problem.dim)

    def _make_runner(self, run: EngineRun, eager_reason) -> _FleetRunner:
        return _FleetRunner(self, run, eager_reason)

    def _finalize(self, state: _Fleet) -> None:
        for worker, shard in zip(self.workers, state.shards):
            worker._finalize(shard)

    def _peak_device_bytes(self) -> int:
        return max(w._peak_device_bytes() for w in self.workers)

    def _exchange_best(self, fleet: _Fleet) -> None:
        """Reconcile local gbests: gather candidates, broadcast the winner."""
        for shard in fleet.shards:
            if shard.gbest_value < fleet.best_value:
                fleet.best_value = shard.gbest_value
                fleet.best_position = shard.gbest_position.copy()
        for shard in fleet.shards:
            if fleet.best_value < shard.gbest_value:
                shard.gbest_value = float(fleet.best_value)
                shard.gbest_position = fleet.best_position.copy()
        self.clock.exchange_seconds += self._exchange.gbest_broadcast(
            self.n_devices, fleet.best_position.size * 4 + 8
        )
