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

This engine overrides :meth:`optimize` rather than running one body
because it owns several device timelines; each device runs the unmodified
:class:`FastPSOEngine` iteration (:func:`repro.gpusim.graph.iteration_body`
through its own :class:`~repro.gpusim.graph.IterationRunner`), so numerics
per sub-swarm are identical to single-GPU FastPSO.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import Engine
from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.results import History, OptimizeResult, StepTimes
from repro.core.stopping import StopCriterion
from repro.engines.gpu_elementwise import FastPSOEngine
from repro._compat import deprecated_kwargs
from repro.errors import InvalidParameterError
from repro.gpusim.costmodel import GpuCostParams
from repro.gpusim.device import DeviceSpec
from repro.gpusim.multigpu import ExchangeCost, partition_particles

__all__ = ["MultiGpuFastPSOEngine"]


class _FleetClock:
    """Read-only clock view over the whole fleet for budget tracking.

    The multi-GPU timeline is the slowest device's clock plus the exchange
    costs — the same quantity ``elapsed_seconds`` reports — so a simulated-
    time budget measures exactly what the result will show.
    """

    def __init__(self, engine: "MultiGpuFastPSOEngine") -> None:
        self._engine = engine

    @property
    def now(self) -> float:
        e = self._engine
        return max(w.clock.now for w in e.workers) + e._exchange_seconds


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
        self._exchange = ExchangeCost(self.workers[0].ctx.spec)
        self._exchange_seconds = 0.0

    def attach_fault_injector(self, injector) -> None:
        # One injector spans all worker devices: launch/alloc ordinals count
        # across the whole engine, and a device-lost fault takes down the
        # entire multi-GPU run (the base class would find no ``self.ctx``
        # here and silently skip the wiring).
        self._fault_injector = injector
        injector.on_new_device()
        for worker in self.workers:
            worker.ctx.attach_fault_injector(injector)

    def _graph_blockers(self) -> str | None:
        if any(w.ctx.launcher.record_launches for w in self.workers):
            return "record-launches"
        return None

    # -- step (i) is unused; the loop below drives the workers directly --
    def _initialize(self, *a, **k):  # pragma: no cover - not reachable
        raise NotImplementedError

    def optimize(
        self,
        problem: Problem,
        *,
        n_particles: int,
        max_iter: int,
        params: PSOParams = PAPER_DEFAULTS,
        stop: StopCriterion | None = None,
        record_history: bool = False,
        callback=None,
        checkpoint=None,
        restore=None,
        budget=None,
        guard=None,
    ) -> OptimizeResult:
        if checkpoint is not None or restore is not None:
            # A multi-GPU run spans several Philox streams and device
            # timelines; a single RunSnapshot cannot express it (yet).
            raise InvalidParameterError(
                "checkpoint/resume is not supported by the multi-GPU engine; "
                "use a single-device engine from the fastpso family"
            )
        if callback is not None and not callable(callback):
            raise InvalidParameterError("callback must be callable")
        from repro.core.budget import Budget

        if budget is not None and not isinstance(budget, Budget):
            raise InvalidParameterError("budget must be a repro Budget")
        if guard is not None and not hasattr(guard, "inspect"):
            raise InvalidParameterError(
                "guard must provide an inspect() hook (see SwarmHealthGuard)"
            )
        if n_particles < self.n_devices:
            raise InvalidParameterError(
                f"cannot split {n_particles} particles over "
                f"{self.n_devices} devices"
            )
        if max_iter <= 0:
            raise InvalidParameterError(f"max_iter must be positive, got {max_iter}")
        if stop is not None:
            stop.reset()

        shard_sizes = partition_particles(n_particles, self.n_devices)
        self._exchange_seconds = 0.0
        history = History() if record_history else None
        for worker in self.workers:
            worker.clock.reset()
            worker._progress = 0.0
        tracker = None
        if budget is not None and not budget.is_unlimited:
            tracker = budget.start(
                clock=_FleetClock(self), n_particles=n_particles
            )
        if guard is not None:
            guard.reset()

        # Per-device init: disjoint Philox streams derived from one seed
        # (each worker's context namespaces the stream by device index).
        # The same generator object continues through the iteration draws,
        # exactly like the single-GPU engine.
        states = []
        rngs = []
        for worker, shard in zip(self.workers, shard_sizes):
            rng = worker.ctx.make_rng(params.seed)
            with worker.clock.section("init"):
                states.append(worker._initialize(problem, params, shard, rng))
            rngs.append(rng)

        setup_seconds = max(w.clock.now for w in self.workers)

        # One capture/replay lifecycle per worker device: each sub-swarm's
        # iteration shape is independent (its own launcher, allocator pool
        # and Philox stream).  Exchanges only rewrite gbest state between
        # iterations, which replay reads dynamically, so they don't block
        # graph eligibility.
        from repro.gpusim.graph import IterationRunner

        eager_reason = self._graph_eager_reason(stop, callback, tracker, guard)
        runners = [
            IterationRunner(
                worker, problem, params, state, rng, eager_reason=eager_reason
            )
            for worker, state, rng in zip(self.workers, states, rngs)
        ]
        self.graph_info = runners[0].info

        global_best_value = np.inf
        global_best_position = np.zeros(problem.dim, dtype=np.float32)
        iterations_run = 0
        status = "completed"

        for t in range(max_iter):
            progress = t / max(1, max_iter - 1)
            for worker, runner in zip(self.workers, runners):
                worker._progress = progress
                runner.run_iteration(t)
            iterations_run = t + 1
            if guard is not None:
                # Each sub-swarm is repaired from its own Philox stream, so
                # interventions stay deterministic per device.
                for state, rng in zip(states, rngs):
                    guard.inspect(state, problem, rng, iteration=t)

            if (t + 1) % self.exchange_interval == 0 or t == max_iter - 1:
                global_best_value, global_best_position = self._exchange_best(
                    problem, states, global_best_value, global_best_position
                )

            if history is not None:
                best_now = min(s.gbest_value for s in states)
                mean_pbest = float(
                    np.mean(np.concatenate([s.pbest_values for s in states]))
                )
                history.record(min(best_now, global_best_value), mean_pbest)
            if callback is not None:
                # The callback receives the sub-swarm currently holding the
                # best gbest (the closest analogue of the single-GPU state).
                leader = min(states, key=lambda s: s.gbest_value)
                if callback(t, leader):
                    global_best_value, global_best_position = (
                        self._exchange_best(
                            problem,
                            states,
                            global_best_value,
                            global_best_position,
                        )
                    )
                    break
            if stop is not None and stop.should_stop(
                t, min(global_best_value, min(s.gbest_value for s in states))
            ):
                global_best_value, global_best_position = self._exchange_best(
                    problem, states, global_best_value, global_best_position
                )
                break
            if (
                tracker is not None
                and iterations_run < max_iter
                and tracker.should_stop(
                    t, min(global_best_value, min(s.gbest_value for s in states))
                )
            ):
                status = tracker.breach or "budget_exhausted"
                global_best_value, global_best_position = self._exchange_best(
                    problem, states, global_best_value, global_best_position
                )
                break

        for runner in runners:
            runner.finalize()
        for worker, state in zip(self.workers, states):
            worker._finalize(state)

        elapsed = (
            max(w.clock.now for w in self.workers) + self._exchange_seconds
        )
        loop_seconds = elapsed - setup_seconds
        slowest = max(self.workers, key=lambda w: w.clock.now)
        step_times = StepTimes(
            init=slowest.clock.total("init"),
            eval=slowest.clock.total("eval"),
            pbest=slowest.clock.total("pbest"),
            gbest=slowest.clock.total("gbest") + self._exchange_seconds,
            swarm=slowest.clock.total("swarm"),
        )
        return OptimizeResult(
            engine=self.name,
            problem=problem.name,
            n_particles=n_particles,
            dim=problem.dim,
            iterations=iterations_run,
            best_value=float(global_best_value),
            best_position=np.asarray(global_best_position, dtype=np.float64),
            error=problem.error_of(global_best_value),
            elapsed_seconds=elapsed,
            setup_seconds=setup_seconds,
            iteration_seconds=loop_seconds / iterations_run,
            step_times=step_times,
            history=history,
            peak_device_bytes=max(
                w.ctx.memory.high_water_bytes for w in self.workers
            ),
            status=status,
        )

    def _exchange_best(
        self, problem, states, global_best_value, global_best_position
    ):
        """Reconcile local gbests: gather candidates, broadcast the winner."""
        for state in states:
            if state.gbest_value < global_best_value:
                global_best_value = state.gbest_value
                global_best_position = state.gbest_position.copy()
        for state in states:
            if global_best_value < state.gbest_value:
                state.gbest_value = float(global_best_value)
                state.gbest_position = global_best_position.copy()
        self._exchange_seconds += self._exchange.gbest_broadcast(
            self.n_devices, problem.dim * 4 + 8
        )
        return global_best_value, global_best_position
