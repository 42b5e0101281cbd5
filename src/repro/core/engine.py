"""Engine base class: Algorithm 1's loop with per-step simulated timing.

An :class:`Engine` owns a :class:`~repro.gpusim.clock.SimClock` and runs the
paper's four-step decomposition — (i) swarm initialisation, (ii) swarm
evaluation, (iii) pbest/gbest update, (iv) swarm update — attributing every
simulated second to one of the five Figure 5 sections (``init``, ``eval``,
``pbest``, ``gbest``, ``swarm``).

Subclasses implement the five step hooks.  The *numerics* of each step are
shared module functions (:mod:`repro.core.swarm`), so engines differ only in
how they decompose the work into kernels/loops and what those cost; this is
the reproduction of the paper's claim that fastpso, fastpso-seq and
fastpso-omp are one algorithm on three execution substrates.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

import numpy as np

from repro.core.budget import Budget
from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.results import History, OptimizeResult, StepTimes
from repro.core.stopping import StopCriterion
from repro.core.swarm import SwarmState
from repro.core.workspace import Workspace
from repro.errors import InvalidParameterError
from repro.gpusim.clock import SimClock
from repro.gpusim.rng import ParallelRNG

__all__ = ["Engine", "EngineRun"]


class EngineRun:
    """Live state of one ``optimize()`` call, stepped one iteration at a time.

    :meth:`Engine.start_run` performs everything ``optimize()`` does before
    its loop (validation, clock reset, initialisation, restore, runner
    construction) and returns one of these.  The caller then drives
    ``for t in range(run.start_iter, run.max_iter): run.step(t)`` and
    collects the :class:`~repro.core.results.OptimizeResult` from
    :meth:`finish`.  ``optimize()`` itself is exactly that loop, so stepping
    a run externally is bit-identical to the monolithic call.

    The split exists for hosts that interleave several runs in one loop —
    the fused multi-swarm batch path (:mod:`repro.batch.fused`) steps ``m``
    compatible runs in lockstep and replaces :meth:`run_semantics` with
    stacked array work, while :meth:`after_iteration` keeps every run's own
    bookkeeping (history, budget, checkpoint, stop criteria) unchanged.
    """

    __slots__ = (
        "engine",
        "problem",
        "params",
        "n_particles",
        "max_iter",
        "stop",
        "record_history",
        "callback",
        "checkpoint",
        "budget",
        "guard",
        "state",
        "rng",
        "history",
        "tracker",
        "injector",
        "runner",
        "setup_seconds",
        "start_iter",
        "iterations_run",
        "status",
    )

    def step(self, t: int) -> bool:
        """Run iteration *t* plus its bookkeeping; True means stop now."""
        self.run_semantics(t)
        return self.after_iteration(t)

    def run_semantics(self, t: int) -> None:
        """The iteration body only: Algorithm 1's four sections at *t*."""
        engine = self.engine
        # Fraction of the budget consumed; drives the adaptive velocity
        # bound (Kaucic 2013) used by Eq. (5)'s clamping.
        engine._progress = t / max(1, self.max_iter - 1)
        self.runner.run_iteration(t)

    def after_iteration(self, t: int) -> bool:
        """Post-iteration bookkeeping (identical to the historical loop
        tail): integrity check, guard, history, callback/stop/budget
        evaluation and checkpoint capture.  Returns whether to stop."""
        self.iterations_run = t + 1
        state = self.state
        if self.injector is not None:
            self.injector.check_integrity()
        if self.guard is not None:
            self.guard.inspect(state, self.problem, self.rng, iteration=t)
        if self.history is not None:
            self.history.record(
                state.gbest_value, float(np.mean(state.pbest_values))
            )
        stopping = False
        if self.callback is not None and self.callback(t, state):
            stopping = True
        elif self.stop is not None and self.stop.should_stop(
            t, state.gbest_value
        ):
            stopping = True
        elif (
            self.tracker is not None
            and self.iterations_run < self.max_iter
            and self.tracker.should_stop(t, state.gbest_value)
        ):
            # A budget that trips on what would have been the final
            # iteration anyway is not a breach — the guard above keeps
            # full runs reporting "completed".
            stopping = True
            self.status = self.tracker.breach or "budget_exhausted"
        if (
            self.checkpoint is not None
            and not stopping
            and self.iterations_run < self.max_iter
            and self.checkpoint.due(self.iterations_run)
        ):
            # Captured *after* the stop criterion observed this
            # iteration, so a resumed StallStop continues its count
            # exactly where the original run's would be.
            from repro.reliability.snapshot import capture_live_run

            self.checkpoint.save(capture_live_run(self))
        return stopping

    def finish(self) -> OptimizeResult:
        """Finalize the run and assemble its :class:`OptimizeResult`."""
        engine = self.engine
        state = self.state
        self.runner.finalize()
        engine._finalize(state)

        clock = engine.clock
        loop_seconds = clock.now - self.setup_seconds
        step_times = StepTimes(
            init=clock.total("init"),
            eval=clock.total("eval"),
            pbest=clock.total("pbest"),
            gbest=clock.total("gbest"),
            swarm=clock.total("swarm"),
        )
        return OptimizeResult(
            engine=engine.name,
            problem=self.problem.name,
            n_particles=self.n_particles,
            dim=self.problem.dim,
            iterations=self.iterations_run,
            best_value=state.gbest_value,
            best_position=np.asarray(state.gbest_position, dtype=np.float64),
            error=self.problem.error_of(state.gbest_value),
            elapsed_seconds=clock.now,
            setup_seconds=self.setup_seconds,
            iteration_seconds=loop_seconds / self.iterations_run,
            step_times=step_times,
            history=self.history,
            peak_device_bytes=engine._peak_device_bytes(),
            status=self.status,
        )


class Engine(ABC):
    """Abstract PSO engine; see the engine implementations in
    :mod:`repro.engines`."""

    #: Short identifier used in result tables (e.g. ``"fastpso"``).
    name: str = "engine"
    #: Whether the engine executes on the simulated GPU.
    is_gpu: bool = False
    #: Whether the engine provides a launch-graph replay plan
    #: (:mod:`repro.gpusim.graph`).  Engines that do accept ``graph=`` in
    #: their constructor and set :attr:`graph_enabled` from it.
    supports_graph: bool = False
    #: The ``graph=`` knob: capture & replay the steady-state iteration when
    #: possible.  Ignored (always eager) when :attr:`supports_graph` is
    #: False.
    graph_enabled: bool = True
    #: Lifecycle report of the most recent run's :class:`~repro.gpusim.
    #: graph.IterationRunner` (``None`` before the first ``optimize``).
    graph_info: dict | None = None

    def __init__(self) -> None:
        self.clock = SimClock()
        # Host-side scratch arena for per-iteration temporaries (weight
        # matrices, pull terms, tile buffers).  Purely a host optimisation:
        # simulated device allocation still goes through the allocator.
        self._ws = Workspace()

    # -- step hooks -----------------------------------------------------------
    @abstractmethod
    def _initialize(
        self, problem: Problem, params: PSOParams, n_particles: int, rng: ParallelRNG
    ) -> SwarmState:
        """Step (i): allocate and randomly initialise the swarm."""

    @abstractmethod
    def _evaluate(self, problem: Problem, state: SwarmState) -> np.ndarray:
        """Step (ii): fitness of every particle at its current position."""

    @abstractmethod
    def _update_pbest(self, state: SwarmState, values: np.ndarray) -> None:
        """Step (iii), first half: claim improved personal bests."""

    @abstractmethod
    def _update_gbest(self, state: SwarmState) -> None:
        """Step (iii), second half: reduce pbest values to the global best."""

    @abstractmethod
    def _update_swarm(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
    ) -> None:
        """Step (iv): Eq. (4)/(2) velocity and position updates."""

    def _finalize(self, state: SwarmState) -> None:
        """Post-loop work (e.g. device-to-host copy of the result)."""

    # -- the loop ---------------------------------------------------------------
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
        """Run Algorithm 1 and return the best solution plus timings.

        ``max_iter`` is the iteration budget; an optional extra *stop*
        criterion can end the run earlier.  The engine's clock is reset at
        entry, so ``elapsed_seconds`` is the simulated time of exactly this
        run.

        ``callback(iteration, state)`` is invoked after each completed
        iteration with the live :class:`SwarmState` (read it, don't mutate
        it); returning a truthy value terminates the run — the hook used
        for custom monitoring, checkpointing and diagnostics
        (:mod:`repro.core.diagnostics`).  Callback execution is host-side
        and costs no simulated time.

        ``checkpoint`` enables periodic snapshots: pass a
        :class:`~repro.reliability.checkpoint.CheckpointManager` (or any
        object with its ``due``/``save`` methods), or a directory path to
        get a manager with default cadence/retention.
        ``restore`` resumes a previous run from a
        :class:`~repro.reliability.snapshot.RunSnapshot` (or a checkpoint
        file path): the run continues bit-identically — same trajectory,
        same final result, same simulated seconds as the uninterrupted run.
        The run *shape* (problem, ``n_particles``, ``max_iter``, ``params``,
        ``record_history``, ``stop`` spec) must match the captured one.

        ``budget`` caps the run (:class:`~repro.core.budget.Budget`): on
        expiry the loop stops cleanly and the result's ``status`` names the
        exhausted axis (``"deadline_exceeded"`` / ``"budget_exhausted"``)
        while ``best_value``/``best_position`` still hold the best-so-far
        answer.  Budgets compose with checkpoint/resume — the wall-clock
        seconds already consumed are snapshotted, so a resumed run honours
        the remaining deadline.

        ``guard`` attaches a
        :class:`~repro.reliability.guard.SwarmHealthGuard`: a
        per-iteration NaN/Inf and velocity-explosion check that
        deterministically clamps or re-seeds offending particles from the
        run's own Philox stream.  Off by default; with no guard the
        trajectory is bit-identical to previous releases.
        """
        run = self.start_run(
            problem,
            n_particles=n_particles,
            max_iter=max_iter,
            params=params,
            stop=stop,
            record_history=record_history,
            callback=callback,
            checkpoint=checkpoint,
            restore=restore,
            budget=budget,
            guard=guard,
        )
        for t in range(run.start_iter, max_iter):
            if run.step(t):
                break
        return run.finish()

    def start_run(
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
    ) -> EngineRun:
        """Everything :meth:`optimize` does before its loop.

        Validates the configuration, resets the clock, initialises (and, if
        *restore* is given, restores) the swarm, and builds the iteration
        runner.  Returns the :class:`EngineRun` handle whose
        ``step``/``finish`` methods complete the run — ``optimize()`` is
        literally ``start_run``, the step loop, then ``finish``, so external
        stepping is bit-identical to the monolithic call.
        """
        if callback is not None and not callable(callback):
            raise InvalidParameterError("callback must be callable")
        if budget is not None and not isinstance(budget, Budget):
            raise InvalidParameterError("budget must be a repro Budget")
        if guard is not None and not hasattr(guard, "inspect"):
            raise InvalidParameterError(
                "guard must provide an inspect() hook (see SwarmHealthGuard)"
            )
        if not isinstance(problem, Problem):
            raise InvalidParameterError("optimize() requires a Problem")
        if n_particles <= 0:
            raise InvalidParameterError(
                f"n_particles must be positive, got {n_particles}"
            )
        if max_iter <= 0:
            raise InvalidParameterError(f"max_iter must be positive, got {max_iter}")
        if checkpoint is not None:
            # Local imports: repro.reliability imports the engines package,
            # so a top-level import here would be circular.
            from repro.reliability.checkpoint import CheckpointManager
            from repro.reliability.snapshot import ensure_capturable

            if isinstance(checkpoint, (str, os.PathLike)):
                checkpoint = CheckpointManager(checkpoint)
            # Fail now, not at the first due iteration mid-run.
            ensure_capturable(problem)

        self.clock.reset()
        if stop is not None:
            stop.reset()
        rng = self._make_rng(params.seed)
        history = History() if record_history else None
        injector = self._fault_injector
        tracker = None
        if budget is not None and not budget.is_unlimited:
            tracker = budget.start(clock=self.clock, n_particles=n_particles)
        if guard is not None:
            guard.reset()

        with self.clock.section("init"):
            state = self._initialize(problem, params, n_particles, rng)
        setup_seconds = self.clock.now

        start_iter = 0
        if restore is not None:
            from repro.errors import CheckpointError
            from repro.reliability.checkpoint import read_snapshot
            from repro.reliability.snapshot import RunSnapshot, stop_to_spec

            if not isinstance(restore, RunSnapshot):
                restore = read_snapshot(restore)
            restore.validate_for(
                problem=problem,
                n_particles=n_particles,
                max_iter=max_iter,
                params=params,
                record_history=record_history,
            )
            run_stop_spec = stop_to_spec(stop) if stop is not None else None
            if run_stop_spec != restore.stop_spec:
                raise CheckpointError(
                    "stop criterion differs from the checkpointed one; "
                    "resume with snapshot.make_stop()"
                )
            run_budget_spec = budget.to_spec() if budget is not None else None
            if run_budget_spec != restore.budget_spec:
                raise CheckpointError(
                    "budget differs from the checkpointed one; resume with "
                    "the same Budget the original run was given"
                )
            if tracker is not None and restore.budget_state is not None:
                # Wall seconds already consumed keep counting against the
                # deadline; the simulated axis restarts with the clock
                # overwrite below and needs no state of its own.
                tracker.load_state(restore.budget_state)
            if (
                rng.seed != restore.rng_state["seed"]
                or rng.stream_id != restore.rng_state["stream_id"]
            ):
                raise CheckpointError(
                    "engine RNG stream does not match the snapshot "
                    f"(snapshot seed={restore.rng_state['seed']} "
                    f"stream={restore.rng_state['stream_id']}, engine "
                    f"built seed={rng.seed} stream={rng.stream_id})"
                )
            # The fresh _initialize above was a throwaway: it built kernels
            # and buffers with the right shapes.  _warm_resume lets GPU
            # engines pre-warm their allocator pool so the resumed
            # iterations hit the pool exactly like the uninterrupted run's.
            self._warm_resume(problem, params, n_particles)
            restore.apply_to(state)
            rng.seek(int(restore.rng_state["position"]))
            # Overwrite the clock wholesale: simulated time continues from
            # the capture point as if the interruption never happened.
            self.clock.now = float(restore.clock_state["now"])
            self.clock.section_totals.clear()
            self.clock.section_totals.update(
                {
                    str(k): float(v)
                    for k, v in restore.clock_state["section_totals"].items()
                }
            )
            setup_seconds = float(restore.setup_seconds)
            if stop is not None and restore.stop_state is not None:
                stop.load_state(restore.stop_state)
            if history is not None and restore.history_state is not None:
                history.gbest_values[:] = [
                    float(v) for v in restore.history_state["gbest_values"]
                ]
                history.mean_pbest_values[:] = [
                    float(v)
                    for v in restore.history_state["mean_pbest_values"]
                ]
            start_iter = restore.iteration

        if injector is not None:
            injector.watch_state(state)

        # A run is graph-eligible only when nothing can change the iteration
        # shape or needs per-launch hooks.  A restored run builds a fresh
        # runner like any other, so the graph is re-captured after resume —
        # stale bindings from the pre-checkpoint run can never be replayed.
        from repro.gpusim.graph import IterationRunner

        eager_reason = self._graph_eager_reason(stop, callback, tracker, guard)
        runner = IterationRunner(
            self, problem, params, state, rng, eager_reason=eager_reason
        )

        self._progress = 0.0
        run = EngineRun()
        run.engine = self
        run.problem = problem
        run.params = params
        run.n_particles = n_particles
        run.max_iter = max_iter
        run.stop = stop
        run.record_history = record_history
        run.callback = callback
        run.checkpoint = checkpoint
        run.budget = budget
        run.guard = guard
        run.state = state
        run.rng = rng
        run.history = history
        run.tracker = tracker
        run.injector = injector
        run.runner = runner
        run.setup_seconds = setup_seconds
        run.start_iter = start_iter
        run.iterations_run = start_iter
        run.status = "completed"
        return run

    def _peak_device_bytes(self) -> int:
        """High-water device-memory mark; CPU engines report 0."""
        return 0

    # -- launch-graph hooks ---------------------------------------------------
    def _graph_eager_reason(self, stop, callback, tracker=None, guard=None) -> str | None:
        """Why this run must execute eagerly, or ``None`` if graph-eligible.

        A stop criterion, callback, budget tracker or health guard can end
        or alter the run at any iteration and must observe per-iteration
        state transitions in eager order; a fault injector needs its
        per-launch hook; ``record_launches`` needs the full per-launch log
        that replay deliberately skips.
        """
        if not self.supports_graph:
            return "engine-does-not-support-graphs"
        if not self.graph_enabled:
            return "graph=False"
        if stop is not None:
            return "stop-criterion"
        if callback is not None:
            return "callback"
        if tracker is not None:
            return "budget"
        if guard is not None:
            return "health-guard"
        if self._fault_injector is not None:
            return "fault-injector"
        return self._graph_blockers()

    def _graph_blockers(self) -> str | None:
        """Engine-specific extra eager conditions (e.g. launch recording)."""
        return None

    def _graph_build_replay(self, problem, params, state, rng):
        """Build the pre-bound replay plan for one steady-state iteration.

        Returns ``(replay, plan_launches)``: a zero-argument callable that
        executes one full iteration, and the launch sequence it will charge
        (``(name, section, n_elems, config, cost)`` tuples) for validation
        against the capture.  Only called on engines with
        :attr:`supports_graph`.
        """
        raise NotImplementedError

    def _graph_build_native(self, graph, problem, params, state):
        """This engine's part of the native (one-C-call) tier.

        Called by :func:`repro.gpusim.fastpath.build_native` with the
        run's captured :class:`~repro.gpusim.graph.LaunchGraph`.  Returns a
        reason string naming why this run is not native-eligible, or
        ``(eval_fn, charge)``: the pure evaluation function (positions ->
        float64 values) and ``charge(improved)``, which charges the clock
        for one iteration from the capture — no cost-model calls — given
        the number of improved particles.  The shared builder owns
        everything else (plan, step, verification gate).  The base
        implementation opts out; engines whose iteration matches the fast
        path's shape override it.
        """
        return "engine-has-no-native-plan"

    # -- reliability hooks ----------------------------------------------------
    #: Fault injector followed by this engine (None = fault-free run).
    _fault_injector = None

    def attach_fault_injector(self, injector) -> None:
        """Wire a :class:`~repro.reliability.faults.FaultInjector` into this
        engine's run.

        The base implementation registers the injector for the per-iteration
        integrity check; GPU engines extend it to hook the launcher and
        allocator of their context.  Attaching signals ``on_new_device`` —
        an engine instance is a fresh (healthy) device, which is exactly how
        failover from a sticky device-lost fault works.
        """
        self._fault_injector = injector
        injector.on_new_device()
        ctx = getattr(self, "ctx", None)
        if ctx is not None and hasattr(ctx, "attach_fault_injector"):
            ctx.attach_fault_injector(injector)

    def _warm_resume(
        self, problem: Problem, params: PSOParams, n_particles: int
    ) -> None:
        """Reproduce allocator warm-up that a resumed run would otherwise miss.

        Called between the throwaway ``_initialize`` and the state restore.
        Engines whose iterations allocate transient device buffers override
        this to pre-warm the caching allocator's pool so the first resumed
        iteration takes pool *hits* exactly like iteration ``k`` of the
        uninterrupted run would — a requirement for bit-identical simulated
        timings.  (Any simulated time spent here is irrelevant: the clock is
        overwritten from the snapshot right after.)
        """

    # -- helpers -------------------------------------------------------------
    #: Fraction of the iteration budget consumed (set each iteration).
    _progress: float = 0.0

    def _current_velocity_bounds(
        self, problem: Problem, params: PSOParams
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Eq. (5) bounds at the current iteration.

        With ``adaptive_velocity`` the bounds shrink linearly from the full
        clamp width at iteration 0 to ``final_velocity_fraction`` of it at
        the last iteration, so late iterations refine rather than leap.
        """
        bounds = problem.velocity_bounds(params.velocity_clamp)
        if bounds is None or not params.adaptive_velocity:
            return bounds
        frac = 1.0 - (1.0 - params.final_velocity_fraction) * self._progress
        lo, hi = bounds
        return lo * frac, hi * frac

    def _scheduled_params(self, params: PSOParams) -> PSOParams:
        """Resolve the inertia schedule (if any) at the current progress.

        Called by the engines' swarm-update steps so every substrate applies
        the same ``w(t)`` — scheduled runs stay bit-identical across the
        fastpso family.
        """
        if params.inertia_schedule is None:
            return params
        return params.with_overrides(
            inertia=params.inertia_schedule.weight(self._progress)
        )

    def _make_rng(self, seed: int) -> ParallelRNG:
        """Engines share one Philox stream layout for bit-equal trajectories."""
        return ParallelRNG(seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} gpu={self.is_gpu}>"
