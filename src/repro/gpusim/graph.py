"""Launch-graph capture & replay: the CUDA-Graphs-style iteration fast path.

PR 1 made every step of the launch pipeline a dictionary hit; this module
removes the pipeline from the steady state entirely.  The idea is the same
as CUDA Graphs in production inference stacks: a PSO iteration launches the
same kernels with the same geometry every time, so after observing one
steady-state iteration the host can *replay* the whole iteration as its
numerics plus one flat charge of the captured accounting — no kernel dict
lookups, no spec hashing, no config resolution, no per-launch clock or
profiler updates.

Every tier runs one iteration body, :func:`iteration_body`: the objective,
the shared :mod:`repro.core.swarm` pbest claim and gbest scan, then the
engine's step (iv) (:meth:`~repro.core.engine.Engine._swarm_numerics`).
Only its accounting differs.  *Live* accounting (warmup, capture, validate
and every eager run) enters the four clock sections and wraps each
kernel's numerics in the engine's cost profile: the fault hook before,
the charge after, in the eager launch order.  *Flat* accounting (the
Python replay and fused rounds) runs the numerics bare and then charges
the captured iteration in one :meth:`LaunchGraph.charge`.

The lifecycle, driven by :class:`IterationRunner`:

``warmup``
    The first iteration runs eagerly, untraced.  It differs from the steady
    state (allocator pool misses, first-seen launch shapes) and is never
    captured.
``capture``
    The second iteration runs eagerly with the clock trace and the
    launcher's capture sink attached, recording every clock charge
    ``(section, seconds, dynamic)`` and every launch ``(kernel, section,
    n_elems, config, cost)`` plus the iteration's RNG block consumption
    and allocator-counter delta.
``validate``
    The third iteration runs eagerly, traced again.  If its charge and
    launch sequences don't match the capture (outside slots explicitly
    marked *dynamic*, e.g. the pbest-copy charge whose size is the number
    of improved particles), the iteration shape is data-dependent and the
    run permanently falls back to eager — by design, not as an error.  The
    allocator counters must match too: an iteration whose
    :class:`~repro.gpusim.alloc.AllocatorStats` delta differs from the
    capture's (``allocator-delta-changed``), or that changes
    ``live_buffers`` or ``memory.used_bytes`` on net
    (``allocator-net-change``), is not a steady state and stays eager.
``replay``
    Every further iteration is :func:`iteration_body` with flat
    accounting.  There is no per-engine replay plan whose charges could
    drift from eager: the numerics are the same calls, and the charges
    *are* the capture.  The first replay checks that the iteration consumed
    exactly the captured number of Philox blocks
    (:class:`~repro.errors.GraphReplayError` on divergence — that would be
    a repro bug, not a user condition).
``native-verify`` / ``native``
    The third tier (``_fastpath.c``): after the first verified Python
    replay, a native-eligible run (global-memory float32 engines with the
    global topology; built from the capture by
    :func:`repro.gpusim.fastpath.build_native`) is promoted to one C call
    per iteration, which scores the swarm too when the objective is
    Sphere.  Promotion is gated by one shadow-verified iteration —
    the trusted Python replay runs on the real state while the C step runs
    on copies, and every output buffer must match bitwise.  Any mismatch,
    missing compiler, failed self-test, unsupported shape or
    ``REPRO_NO_NATIVE_FASTPATH=1`` silently keeps the run on the Python
    replay tier; the trajectory is bit-identical on every tier by
    construction.  ``info["native"]`` records the outcome (``"active"`` or
    the demotion reason), ``info["native_replays"]`` counts the C-call
    iterations (also included in ``info["replays"]``, so profiler
    reconciliation is tier-agnostic).

Every fast tier — the Python replay, the native step and the fused
multi-swarm loop — is numerics plus one flat :meth:`LaunchGraph.charge`.
A fused round is one stacked evaluation plus each member's
:func:`iteration_body` on its row block of the values, the same call a solo
replay makes.
Simulated time stays bit-identical because the charge adds the captured
charge sequence in captured order, the *same sequence of float additions*
the eager iteration made (allocator pool hits and driver calls are traced
slots like any launch), with the engine's dynamic pbest-copy charge in its
slot, then applies the captured allocator-counter delta as integer adds —
the counters of the paper's "a pool hit costs only a table lookup"
(Table 4) advance exactly as the iteration's alloc/free calls would have
advanced them, without making those calls.  Profiler statistics are
aggregated per graph — replayed launches touch no
:class:`~repro.gpusim.launch.LaunchStats` until
:meth:`IterationRunner.finalize` folds ``replays x captured-cost`` into the
launcher's buckets in one update per kernel.

Eager fallbacks (the graph is simply not used): ``graph=False``, a stop
criterion, a callback, an attached fault injector, ``record_launches=True``
or an engine without graph support.  Checkpoint *capture* composes with
replay (snapshots read state the replay keeps current); a *restored* run
rebuilds its runner from scratch, so the graph is re-captured after resume
and can never replay stale bindings — and re-promotes to the native tier
when eligible.  The fused multi-swarm ramp sets ``allow_native = False``
before stepping, pinning the runner to the Python replay tier: it expects
phase ``replay`` once its ramp is done, and its fast loop rebinds the
positions to a view of stacked storage, while a
:class:`~repro.gpusim.fastpath.NativePlan` keeps the raw addresses of the
arrays it was built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.swarm import gbest_scan, pbest_update
from repro.errors import GraphReplayError
from repro.gpusim.alloc import AllocatorStats

__all__ = [
    "CapturedLaunch",
    "LaunchGraph",
    "IterationRunner",
    "LiveCharge",
    "LiveLaunch",
    "iteration_body",
    "traced_capture",
]


#: One recorded launch: (kernel_name, section, n_elems, config, cost).
CapturedLaunch = tuple

#: Named reasons a validated iteration is not the captured one (see
#: :meth:`LaunchGraph.mismatch`); the run stays eager.
SHAPE_CHANGED = "iteration-shape-changed"
ALLOC_NET_CHANGE = "allocator-net-change"
ALLOC_DELTA_CHANGED = "allocator-delta-changed"


@dataclass
class LaunchGraph:
    """The record of one captured steady-state iteration.

    ``trace`` is the clock charge sequence; ``launches`` the kernel launch
    sequence (empty for CPU engines, which charge the clock directly);
    ``rng_blocks`` the Philox blocks one iteration consumes.  For engines
    with a device allocator, ``alloc_delta`` is the iteration's
    :class:`~repro.gpusim.alloc.AllocatorStats` traffic and ``alloc_net``
    its net ``(live_buffers, memory.used_bytes)`` change; ``allocator`` is
    the allocator whose counters :meth:`charge` advances.
    """

    trace: list[tuple[str | None, float, bool]] = field(default_factory=list)
    launches: list[CapturedLaunch] = field(default_factory=list)
    rng_blocks: int = 0
    alloc_delta: AllocatorStats | None = None
    alloc_net: tuple[int, int] = (0, 0)
    allocator: object = field(default=None, compare=False, repr=False)

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

    def mismatch(self, other: "LaunchGraph") -> str | None:
        """Why *other* is not this iteration shape, or ``None`` if it is.

        An iteration that allocates on net (``alloc_net``) is not a steady
        state whose allocator traffic can be replayed as counter deltas;
        otherwise the allocator deltas, charges (dynamic slots wildcarded),
        launches and RNG consumption must all match.
        """
        if self.alloc_net != (0, 0) or other.alloc_net != (0, 0):
            return ALLOC_NET_CHANGE
        if self.alloc_delta != other.alloc_delta:
            return ALLOC_DELTA_CHANGED
        if not (
            self.trace_matches(other.trace)
            and self.launches_match(other.launches)
            and self.rng_blocks == other.rng_blocks
        ):
            return SHAPE_CHANGED
        return None

    def charge(self, clock, dynamic: Callable[[], None]) -> None:
        """Replay the captured iteration's accounting onto *clock* and the
        allocator counters.

        Static slots add their captured seconds to ``clock.now`` and to their
        section's total; each dynamic slot calls *dynamic* inside its
        section, which charges the slot's live (data-dependent) cost.  The
        additions run in the captured order on the same floats, so the clock
        ends bit-identical to an eager iteration's — allocator pool hits and
        driver calls included, since their clock charges are traced slots
        too.  The captured :class:`~repro.gpusim.alloc.AllocatorStats` delta
        is then applied as integer adds, so Table 4's counters advance
        exactly as the iteration's alloc/free calls would have advanced
        them.  ``clock.now`` is kept in a local between dynamic slots; the
        clock must not be tracing.
        """
        totals = clock.section_totals
        totals_get = totals.get
        stack = clock._stack
        now = clock.now
        for label, seconds, is_dynamic in self.trace:
            if is_dynamic:
                clock.now = now
                stack.append(label)
                try:
                    dynamic()
                finally:
                    stack.pop()
                now = clock.now
            else:
                now += seconds
                if label is not None:
                    totals[label] = totals_get(label, 0.0) + seconds
        clock.now = now
        if self.alloc_delta is not None:
            self.allocator.stats.add(self.alloc_delta)

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


def traced_capture(
    clock, launcher, rng, body: Callable[[], None], allocator=None
) -> LaunchGraph:
    """Run *body* once with the clock trace and the launcher's capture sink
    attached, and return what it charged, launched, drew and allocated.

    *launcher* is ``None`` for CPU engines, which charge the clock
    directly; the graph's launch list is then empty.  *allocator*
    is ``None`` for engines without device memory; the graph then carries
    no allocator delta.  Tracing never changes the float accumulation, so
    the traced iteration is an ordinary one.
    """
    captured: list = []
    if launcher is not None:
        launcher.capture = captured
    if allocator is not None:
        stats_before = allocator.stats.copy()
        live_before = allocator.live_buffers
        used_before = allocator.memory.used_bytes
    clock.begin_trace()
    rng_before = rng.position
    try:
        body()
    finally:
        trace = clock.end_trace()
        if launcher is not None:
            launcher.capture = None
    graph = LaunchGraph(
        trace=trace, launches=captured, rng_blocks=rng.position - rng_before
    )
    if allocator is not None:
        graph.allocator = allocator
        graph.alloc_delta = allocator.stats.since(stats_before)
        graph.alloc_net = (
            allocator.live_buffers - live_before,
            allocator.memory.used_bytes - used_before,
        )
    return graph


class _Flat:
    """Flat accounting around a kernel or section: nothing happens."""

    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> bool:
        return False


_FLAT = _Flat()


def _flat(_key: str) -> _Flat:
    """The flat-mode accounting hook: every kernel and section is a no-op;
    the iteration's charges come from :meth:`LaunchGraph.charge`."""
    return _FLAT


class LiveLaunch:
    """Live accounting of a kernel's launches around its numerics.

    Each of *launches* is ``(spec, n_elems, config)``.  Entering runs
    the first launch's fault hook, so an injected fault fires before the
    numerics; a clean exit charges it and then launches the rest (the
    gbest reduction's second pass).  A raising body charges nothing, so
    ``clock.now`` after a failed kernel is what the eager launch path has
    always left there.
    """

    __slots__ = ("launcher", "launches")

    def __init__(self, launcher, *launches: tuple) -> None:
        self.launcher = launcher
        self.launches = launches

    def __enter__(self) -> None:
        self.launcher.hook(self.launches[0][0].name)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            launcher, launches = self.launcher, self.launches
            spec, n_elems, config = launches[0]
            launcher.charge(spec, n_elems, config=config)
            for spec, n_elems, config in launches[1:]:
                launcher.launch(spec, n_elems, config=config)
        return False


class LiveCharge:
    """Live accounting of host-side work: clock charges before and after
    the numerics (``before`` on entry, ``after`` on a clean exit), each its
    own :meth:`~repro.gpusim.clock.SimClock.advance` in order."""

    __slots__ = ("clock", "before", "after")

    def __init__(self, clock, before: tuple = (), after: tuple = ()) -> None:
        self.clock = clock
        self.before = before
        self.after = after

    def __enter__(self) -> None:
        for seconds in self.before:
            self.clock.advance(seconds)

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            for seconds in self.after:
                self.clock.advance(seconds)
        return False


def iteration_body(
    engine, problem, params, state, rng, graph=None, values=None
) -> None:
    """One PSO iteration: objective → pbest claim → gbest scan → step (iv).

    The one body every tier runs (the native step aside, which is
    verified against it).  The numerics are the shared
    :mod:`repro.core.swarm` calls plus the engine's
    :meth:`~repro.core.engine.Engine._swarm_numerics`; only the accounting
    differs between the two modes:

    * *live* (``graph is None``: eager, warmup, capture, validate) — the
      four clock sections, and the engine's ``_kernel(key)`` context around
      each kernel's numerics: its fault hook before them, its charge after,
      in the eager launch order.  The pbest-position copy is charged in the
      pbest section by ``_charge_pbest_copy``.
    * *flat* (a captured *graph*: Python replay, fused rounds) — no
      accounting while the numerics run, then the captured charges in one
      :meth:`LaunchGraph.charge`, with ``_charge_pbest_copy`` in its
      dynamic slot.

    *values* is the objective's output when the caller already evaluated
    (a fused round's stacked evaluation); otherwise the body evaluates.
    """
    live = graph is None
    kernel = engine._kernel if live else _flat
    section = engine.clock.section if live else _flat
    d = state.dim
    with section("eval"):
        if values is None:
            with kernel("evaluate"):
                values = problem.evaluator.evaluate(state.positions)
    with section("pbest"):
        with kernel("pbest"):
            improved = int(np.count_nonzero(pbest_update(state, values)))
        if live:
            engine._charge_pbest_copy(improved, d)
    with section("gbest"), kernel("gbest"):
        gbest_scan(state)
    with section("swarm"), kernel("swarm"):
        engine._swarm_numerics(
            problem, engine._scheduled_params(params), state, rng, kernel
        )
    if not live:
        graph.charge(
            engine.clock, lambda: engine._charge_pbest_copy(improved, d)
        )


class IterationRunner:
    """Drives one engine's iterations through the capture/replay lifecycle.

    Built once per ``optimize()`` call (and per device, for multi-GPU).
    :meth:`run_iteration` runs :func:`iteration_body` with live or flat
    accounting, or the native step;
    :meth:`finalize` reconciles profiler statistics.
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
        "_native",
        "_native_verify",
        "_launcher",
        "_allocator",
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
        self._native: Callable[[], None] | None = None
        self._native_verify = None
        ctx = getattr(engine, "ctx", None)
        self._launcher = getattr(ctx, "launcher", None)
        self._allocator = getattr(ctx, "allocator", None)
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

    # -- the two accounting modes of the one body ----------------------------
    def _run_eager(self) -> None:
        self.engine._eager_iteration(
            self.problem, self.params, self.state, self.rng
        )

    def _replay(self) -> None:
        iteration_body(
            self.engine, self.problem, self.params, self.state, self.rng,
            self.graph,
        )

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
                clock, self._launcher, self.rng, self._run_eager,
                self._allocator,
            )
            self.info["captured_at"] = t
            self.phase = "validate"
            return
        if phase == "validate":
            observed = traced_capture(
                clock, self._launcher, self.rng, self._run_eager,
                self._allocator,
            )
            reason = self.graph.mismatch(observed)
            if reason is not None:
                # Data-dependent iteration shape: stay eager for this run.
                self._demote(reason)
                return
            self.phase = "first-replay"
            return
        # phase == "first-replay": the replay's charges are the capture's by
        # construction; only the numerics' Philox consumption can diverge.
        rng_before = self.rng.position
        self._replay()
        self.info["replays"] += 1
        consumed = self.rng.position - rng_before
        if consumed != self.graph.rng_blocks:
            raise GraphReplayError(
                f"replayed iteration consumed {consumed} RNG blocks; "
                f"capture recorded {self.graph.rng_blocks}"
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
        self.info["mode"] = "eager"
        self.info["eager_reason"] = reason
        if self.info["native"] in (None, "active"):
            self.info["native"] = reason

    def on_stop(self) -> None:
        """The run's callback, stop criterion or budget ended the run
        at this iteration.  One device has nothing to reconcile; the
        multi-GPU fleet's runner runs one more exchange."""

    def finalize(self) -> None:
        """Reconcile aggregated profiling for the replayed iterations."""
        if (
            self.graph is not None
            and self._launcher is not None
            and self.info["replays"]
        ):
            self.graph.flush_stats(self._launcher.stats, self.info["replays"])
