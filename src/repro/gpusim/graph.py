"""Launch-graph capture & replay: the CUDA-Graphs-style iteration fast path.

PR 1 made every step of the launch pipeline a dictionary hit; this module
removes the pipeline from the steady state entirely.  The idea is the same
as CUDA Graphs in production inference stacks: a PSO iteration launches the
same kernels with the same geometry every time, so after observing one
steady-state iteration the host can *replay* the whole iteration as a flat
sequence of pre-bound calls — no kernel dict lookups, no spec hashing, no
config resolution, no per-launch profiler updates.

The lifecycle, driven by :class:`IterationRunner`:

``warmup``
    The first iteration runs eagerly, untraced.  It differs from the steady
    state (allocator pool misses, cold launch caches) and is never captured.
``capture``
    The second iteration runs eagerly with the clock trace and the
    launcher's capture sink attached, recording every clock charge
    ``(section, seconds, dynamic)`` and every launch ``(kernel, section,
    n_elems, config, cost)`` plus the iteration's RNG block consumption.
``validate``
    The third iteration runs eagerly, traced again.  If its charge and
    launch sequences don't match the capture (outside slots explicitly
    marked *dynamic*, e.g. the pbest-copy charge whose size is the number
    of improved particles), the iteration shape is data-dependent and the
    run permanently falls back to eager — by design, not as an error.  On a
    match, the engine builds its replay plan
    (:meth:`~repro.core.engine.Engine._graph_build_replay`) and the plan's
    declared launches are cross-checked against the capture.
``replay``
    Every further iteration is one call into the pre-bound plan.  The first
    replay runs traced and is verified against the capture
    (:class:`~repro.errors.GraphReplayError` on divergence — that would be
    a repro bug, not a user condition); later replays run flat.
``native-verify`` / ``native``
    The third tier (``_fastpath.c``): after the first verified Python
    replay, a native-eligible run (global-memory float32 engines with the
    global topology; built from the capture by
    :func:`repro.gpusim.fastpath.build_native`) is promoted to one C call
    per iteration.  Promotion is gated by one shadow-verified iteration —
    the trusted Python replay runs on the real state while the C step runs
    on copies, and every output buffer must match bitwise.  Any mismatch,
    missing compiler, failed self-test, unsupported shape or
    ``REPRO_NO_NATIVE_FASTPATH=1`` silently keeps the run on the Python
    replay tier; the trajectory is bit-identical on every tier by
    construction.  ``info["native"]`` records the outcome (``"active"`` or
    the demotion reason), ``info["native_replays"]`` counts the C-call
    iterations (also included in ``info["replays"]``, so profiler
    reconciliation is tier-agnostic).

Replay preserves bit-identical simulated time because it performs the *same
sequence of float additions* on the clock as the eager path: one
``advance(cost.seconds)`` per launch in eager order, real allocator
alloc/free calls (pool hits advance the clock natively and keep the
allocator statistics truthful), and the same dynamic charges through the
same helpers.  The native tier keeps this exactly: the C call replaces the
array *semantics* only; its clock charges are the captured ones, in
captured order, with the dynamic pbest-copy charge still going through the
engine's helper.  Profiler statistics are aggregated per graph — replayed
launches touch no :class:`~repro.gpusim.launch.LaunchStats` until
:meth:`IterationRunner.finalize` folds ``replays x captured-cost`` into the
launcher's buckets in one update per kernel.

Eager fallbacks (the graph is simply not used): ``graph=False``, a stop
criterion, a callback, an attached fault injector, ``record_launches=True``
or an engine without a replay plan.  Checkpoint *capture* composes with
replay (snapshots read state the replay keeps current); a *restored* run
rebuilds its runner from scratch, so the graph is re-captured after resume
and can never replay stale bindings — and re-promotes to the native tier
when eligible.  The fused multi-swarm ramp sets ``allow_native = False``
before stepping, pinning the runner to the Python replay tier: it expects
phase ``replay`` once its ramp is done, and its fast loop rebinds the
swarm arrays to views of stacked storage, while a
:class:`~repro.gpusim.fastpath.NativePlan` keeps the raw addresses of the
arrays it was built on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import GraphReplayError

__all__ = ["CapturedLaunch", "LaunchGraph", "IterationRunner", "traced_capture"]


#: One recorded launch: (kernel_name, section, n_elems, config, cost).
CapturedLaunch = tuple


@dataclass
class LaunchGraph:
    """The record of one captured steady-state iteration.

    ``trace`` is the clock charge sequence; ``launches`` the kernel launch
    sequence (empty for CPU engines, which charge the clock directly);
    ``rng_blocks`` the Philox blocks one iteration consumes.
    """

    trace: list[tuple[str | None, float, bool]] = field(default_factory=list)
    launches: list[CapturedLaunch] = field(default_factory=list)
    rng_blocks: int = 0

    def trace_matches(
        self, other: list[tuple[str | None, float, bool]]
    ) -> bool:
        """Exact charge-sequence match, wildcarding dynamic slots' seconds."""
        if len(other) != len(self.trace):
            return False
        for (label, seconds, dynamic), (o_label, o_seconds, o_dynamic) in zip(
            self.trace, other
        ):
            if label != o_label or dynamic != o_dynamic:
                return False
            if not dynamic and seconds != o_seconds:
                return False
        return True

    def launches_match(self, other: list[CapturedLaunch]) -> bool:
        """Same kernels, sections, sizes, geometry and cost, in order."""
        if len(other) != len(self.launches):
            return False
        for mine, theirs in zip(self.launches, other):
            name, section, n_elems, config, cost = mine
            o_name, o_section, o_elems, o_config, o_cost = theirs
            if (
                name != o_name
                or section != o_section
                or n_elems != o_elems
                or config != o_config
                or cost.seconds != o_cost.seconds
            ):
                return False
        return True

    def matches(self, other: "LaunchGraph") -> bool:
        """*other* is the same iteration shape: charges, launches and RNG
        consumption all match (dynamic slots wildcarded)."""
        return (
            self.trace_matches(other.trace)
            and self.launches_match(other.launches)
            and self.rng_blocks == other.rng_blocks
        )

    def launch_seconds(self, section: str) -> tuple[float, ...]:
        """The captured launches' modelled seconds in *section*, in order."""
        return tuple(
            cost.seconds
            for _name, sec, _n, _config, cost in self.launches
            if sec == section
        )

    def charge(self, clock, dynamic: Callable[[], None]) -> None:
        """Replay the captured charge sequence onto *clock*.

        Static slots add their captured seconds to ``clock.now`` and to their
        section's total; each dynamic slot calls *dynamic* inside its
        section, which charges the slot's live (data-dependent) cost.  The
        additions run in the captured order on the same floats, so the clock
        ends bit-identical to an eager iteration's.  ``clock.now`` is kept in
        a local between dynamic slots; the clock must not be tracing.
        """
        totals = clock.section_totals
        totals_get = totals.get
        now = clock.now
        for label, seconds, is_dynamic in self.trace:
            if is_dynamic:
                clock.now = now
                with clock.section(label):
                    dynamic()
                now = clock.now
            else:
                now += seconds
                if label is not None:
                    totals[label] = totals_get(label, 0.0) + seconds
        clock.now = now

    def flush_stats(self, stats: dict, replays: int) -> None:
        """Fold *replays* executions of every captured launch into *stats*.

        One :meth:`~repro.gpusim.launch.LaunchStats.add_many` per distinct
        launch — O(graph size), not O(replays x launches).
        """
        if replays <= 0:
            return
        from repro.gpusim.launch import LaunchStats

        for name, section, n_elems, _config, cost in self.launches:
            key = (name, section)
            bucket = stats.get(key)
            if bucket is None:
                bucket = LaunchStats(kernel_name=name, section=section)
                stats[key] = bucket
            bucket.add_many(cost, n_elems, replays)


def traced_capture(clock, launcher, rng, body: Callable[[], None]) -> LaunchGraph:
    """Run *body* once with the clock trace and the launcher's capture sink
    attached, and return what it charged, launched and drew.

    *launcher* may be ``None`` (CPU engines, or a replay that bypasses the
    launch pipeline); the graph's launch list is then empty.  Tracing never
    changes the float accumulation, so the traced iteration is an ordinary
    one.
    """
    captured: list = []
    if launcher is not None:
        launcher.capture = captured
    clock.begin_trace()
    rng_before = rng.position
    try:
        body()
    finally:
        trace = clock.end_trace()
        if launcher is not None:
            launcher.capture = None
    return LaunchGraph(
        trace=trace, launches=captured, rng_blocks=rng.position - rng_before
    )


#: Clock section labels of Algorithm 1's loop body, in execution order.
SECTIONS = ("eval", "pbest", "gbest", "swarm")


class IterationRunner:
    """Drives one engine's iterations through the capture/replay lifecycle.

    Built once per ``optimize()`` call (and per worker, for multi-GPU).
    :meth:`run_iteration` either runs the eager four-section body or replays
    the captured graph; :meth:`finalize` reconciles profiler statistics.
    The runner publishes its state on ``engine.graph_info`` for tests and
    diagnostics.
    """

    __slots__ = (
        "engine",
        "problem",
        "params",
        "state",
        "rng",
        "phase",
        "graph",
        "allow_native",
        "_replay",
        "_native",
        "_native_verify",
        "_launcher",
        "info",
    )

    def __init__(
        self,
        engine,
        problem,
        params,
        state,
        rng,
        *,
        eager_reason: str | None = None,
    ) -> None:
        self.engine = engine
        self.problem = problem
        self.params = params
        self.state = state
        self.rng = rng
        self.phase = "eager" if eager_reason is not None else "warmup"
        self.graph: LaunchGraph | None = None
        #: The fused multi-swarm ramp sets this False before stepping to pin
        #: the replay tier (see the module docstring).
        self.allow_native = True
        self._replay: Callable[[], None] | None = None
        self._native: Callable[[], None] | None = None
        self._native_verify = None
        ctx = getattr(engine, "ctx", None)
        self._launcher = getattr(ctx, "launcher", None)
        self.info = {
            "mode": "eager" if eager_reason is not None else "graph",
            "eager_reason": eager_reason,
            "captured_at": None,
            "replays": 0,
            # An eager run can never reach the native tier; record the
            # demotion reason up front so fault drills and health guards
            # leave an auditable trail instead of a silent ``None``.
            "native": eager_reason,
            "native_replays": 0,
        }
        engine.graph_info = self.info

    # -- the eager body ------------------------------------------------------
    def _run_eager(self) -> None:
        engine, clock = self.engine, self.engine.clock
        with clock.section("eval"):
            values = engine._evaluate(self.problem, self.state)
        with clock.section("pbest"):
            engine._update_pbest(self.state, values)
        with clock.section("gbest"):
            engine._update_gbest(self.state)
        with clock.section("swarm"):
            engine._update_swarm(self.problem, self.params, self.state, self.rng)

    # -- lifecycle -----------------------------------------------------------
    def run_iteration(self, t: int) -> None:
        phase = self.phase
        if phase == "native":
            self._native()
            self.info["replays"] += 1
            self.info["native_replays"] += 1
            return
        if phase == "replay":
            self._replay()
            self.info["replays"] += 1
            return
        if phase == "native-verify":
            # One shadow-verified iteration: the trusted Python replay runs
            # on the real state, the C step on copies (see
            # repro.gpusim.fastpath.verify_step).  The real trajectory is
            # identical whichever way the verdict goes.
            ok = self._native_verify(self._replay)
            self.info["replays"] += 1
            if ok:
                self.phase = "native"
                self.info["native"] = "active"
            else:
                self.phase = "replay"
                self._native = None
                self._native_verify = None
                self.info["native"] = "parity-mismatch"
            return
        if phase in ("eager", "warmup"):
            self._run_eager()
            if phase == "warmup":
                self.phase = "capture"
            return
        clock = self.engine.clock
        if phase == "capture":
            self.graph = traced_capture(
                clock, self._launcher, self.rng, self._run_eager
            )
            self.info["captured_at"] = t
            self.phase = "validate"
            return
        if phase == "validate":
            graph = self.graph
            observed = traced_capture(
                clock, self._launcher, self.rng, self._run_eager
            )
            if not graph.matches(observed):
                # Data-dependent iteration shape: stay eager for this run.
                self._demote("iteration-shape-changed")
                return
            replay, plan_launches = self.engine._graph_build_replay(
                self.problem, self.params, self.state, self.rng
            )
            if not graph.launches_match(plan_launches):
                # The engine's plan disagrees with what eager actually did;
                # refuse to replay it (a repro bug — surface loudly in the
                # suite via graph_info, but never corrupt a user run).
                self._demote("replay-plan-mismatch")
                return
            self._replay = replay
            self.phase = "first-replay"
            return
        # phase == "first-replay": verified replay, then go flat.
        replayed = traced_capture(clock, None, self.rng, self._replay)
        self.info["replays"] += 1
        graph = self.graph
        if not graph.trace_matches(replayed.trace):
            raise GraphReplayError(
                "replayed iteration charged the clock differently from its "
                "captured iteration; the engine's replay plan is out of "
                "sync with its eager path"
            )
        if replayed.rng_blocks != graph.rng_blocks:
            raise GraphReplayError(
                "replayed iteration consumed "
                f"{replayed.rng_blocks} RNG blocks; capture "
                f"recorded {graph.rng_blocks}"
            )
        self.phase = "replay"
        self._try_native()

    def _try_native(self) -> None:
        """Attempt promotion to the native (one-C-call) tier.

        Called once, after the first verified Python replay.  Every failure
        mode records its reason on ``info["native"]`` and leaves the run on
        the Python replay tier — promotion is strictly best-effort.
        """
        if not self.allow_native:
            self.info["native"] = "host-managed"
            return
        if os.environ.get("REPRO_NO_NATIVE_FASTPATH"):
            self.info["native"] = "disabled-by-env"
            return
        from repro.gpusim import fastpath

        try:
            built = fastpath.build_native(
                self.engine, self.graph, self.problem, self.params,
                self.state, self.rng,
            )
        except Exception:
            self.info["native"] = "native-build-failed"
            return
        if isinstance(built, str):
            self.info["native"] = built
            return
        self._native, self._native_verify = built
        self.phase = "native-verify"

    def _demote(self, reason: str) -> None:
        self.phase = "eager"
        self.graph = None
        self._replay = None
        self.info["mode"] = "eager"
        self.info["eager_reason"] = reason
        if self.info["native"] in (None, "active"):
            self.info["native"] = reason

    def finalize(self) -> None:
        """Reconcile aggregated profiling for the replayed iterations."""
        if (
            self.graph is not None
            and self._launcher is not None
            and self.info["replays"]
        ):
            self.graph.flush_stats(self._launcher.stats, self.info["replays"])
