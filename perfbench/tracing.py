"""Host-time attribution from outside the program.

:func:`instrument` wraps public entry points of ``repro.serve``,
``repro.batch``, ``repro.core.engine``, ``repro.gpusim`` and
``repro.reliability`` with span and counter wrappers that feed one
:class:`Tracer`, and restores every original attribute on exit, even when
the body raises.  Nothing inside ``src/`` is edited, so an untraced run
executes exactly the shipped code.

Spans nest on one stack.  A span's *self* time is its duration minus the
durations of the spans it directly contains, so the self times of all
layers add up to the summed duration of the outermost spans.  The serving
layer's entry points are coroutines; the stack stays well-formed because
the benchmark drives one coroutine chain at a time (a span that closes out
of order raises instead of silently misattributing time).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

#: ``EngineRun.runner.phase`` values, before the step, mapped to the tier
#: that step runs on.  Every other phase is the promotion ramp: warmup,
#: capture, validate, first-replay and native-verify.
TIER_OF_PHASE = {"native": "native", "replay": "replay", "eager": "eager"}
TIERS = ("ramp", "native", "replay", "eager")

_MISSING = object()


class Tracer:
    """Span self times, call counts and per-job latencies of one run."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.root_s = 0.0
        self.job_ms: list[float] = []
        self.graph_jobs = 0
        self.native_jobs = 0
        self.journal_paths: set = set()
        self._stack: list[list[float]] = []
        self._job_start: dict[int, float] = {}
        self._construct_t0: float | None = None

    # -- span bookkeeping ----------------------------------------------------
    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list[float], t0: float) -> float:
        dt = time.perf_counter() - t0
        if not self._stack or self._stack.pop() is not frame:
            raise RuntimeError(f"span {layer!r} closed out of order")
        self.self_s[layer] += dt - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dt
        else:
            self.root_s += dt
        return dt

    def span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, t0)

        return wrapper

    def async_span(self, layer: str, fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, t0)

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer-specific wrappers ---------------------------------------------
    def construct(self, fn):
        """``RunningJob.__init__`` / ``Engine.start_run``: job construction.

        The outermost construct span opens a job's latency window; the
        ``EngineRun`` it returns is keyed to that start time.
        """
        layer = "batch.dispatch.construct"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._construct_t0 is None
            frame = self._enter()
            t0 = time.perf_counter()
            if outermost:
                self._construct_t0 = t0
                self.calls["batch.dispatch.construct_jobs"] += 1
            try:
                run = fn(*args, **kwargs)
                runner = getattr(run, "runner", None)
                if runner is not None:
                    self._job_start[id(run)] = self._construct_t0
                    if runner.info["mode"] == "graph":
                        self.graph_jobs += 1
                return run
            finally:
                if outermost:
                    self._construct_t0 = None
                self._exit(layer, frame, t0)

        return wrapper

    def step(self, fn):
        """``EngineRun.step``: attributed to the tier the step runs on."""

        @functools.wraps(fn)
        def wrapper(run, t):
            tier = TIER_OF_PHASE.get(run.runner.phase, "ramp")
            layer = f"core.engine.{tier}"
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(run, t)
            finally:
                self._exit(layer, frame, t0)

        return wrapper

    def finish(self, fn):
        """``EngineRun.finish``: closes the job's latency window."""

        @functools.wraps(fn)
        def wrapper(run, *args, **kwargs):
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(run, *args, **kwargs)
            finally:
                self._exit("core.engine.finish", frame, t0)
                start = self._job_start.pop(id(run), None)
                if start is not None:
                    self.job_ms.append((time.perf_counter() - start) * 1e3)
                if run.runner.info.get("native") == "active":
                    self.native_jobs += 1

        return wrapper

    def journal_append(self, fn):
        inner = self.span("serve.journal.append", fn)

        @functools.wraps(fn)
        def wrapper(journal, record):
            self.journal_paths.add(journal.path)
            return inner(journal, record)

        return wrapper


def _patch_table(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every instrumented entry point."""
    from repro.batch.dispatch import RunningJob
    from repro.batch.fused import FusedGroupRunner
    from repro.batch.scheduler import BatchScheduler
    from repro.core.engine import Engine, EngineRun
    from repro.gpusim.alloc import CachingAllocator, DirectAllocator
    from repro.gpusim.clock import SimClock
    from repro.gpusim.fastpath import NativePlan
    from repro.reliability.checkpoint import CheckpointManager
    from repro.serve.journal import ServiceJournal
    from repro.serve.service import OptimizationService

    t = tracer
    return [
        (RunningJob, "__init__", t.construct(RunningJob.__init__)),
        (Engine, "start_run", t.construct(Engine.start_run)),
        (EngineRun, "step", t.step(EngineRun.step)),
        (EngineRun, "finish", t.finish(EngineRun.finish)),
        (NativePlan, "step", t.span("gpusim.fastpath.step", NativePlan.step)),
        (SimClock, "advance", t.counter("gpusim.clock.advance", SimClock.advance)),
        (
            SimClock,
            "advance_dynamic",
            t.counter("gpusim.clock.advance", SimClock.advance_dynamic),
        ),
        (
            CachingAllocator,
            "alloc",
            t.counter("gpusim.alloc.alloc", CachingAllocator.alloc),
        ),
        (
            DirectAllocator,
            "alloc",
            t.counter("gpusim.alloc.alloc", DirectAllocator.alloc),
        ),
        (
            OptimizationService,
            "submit",
            t.async_span("serve.submit", OptimizationService.submit),
        ),
        (
            OptimizationService,
            "drain",
            t.async_span("serve.drain", OptimizationService.drain),
        ),
        (ServiceJournal, "append", t.journal_append(ServiceJournal.append)),
        (os, "fsync", t.span("io.fsync", os.fsync)),
        (
            CheckpointManager,
            "save",
            t.span("reliability.checkpoint.save", CheckpointManager.save),
        ),
        (BatchScheduler, "run", t.span("batch.scheduler", BatchScheduler.run)),
        (
            FusedGroupRunner,
            "execute",
            t.span("batch.fused.execute", FusedGroupRunner.execute),
        ),
    ]


@contextlib.contextmanager
def _patched(table: list[tuple[object, str, object]]):
    """Set every ``(owner, attribute, wrapper)``; always restore originals."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, wrapper in table:
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install *tracer*'s wrappers for the body; always restore originals."""
    with _patched(_patch_table(tracer)):
        yield tracer


@contextlib.contextmanager
def native_replays():
    """Count the native-tier iterations of every run finished in the body.

    Only ``EngineRun.finish`` is wrapped, to read the counter the iteration
    runner keeps anyway: one extra call per job, so untraced repetitions
    can catch a silent demotion too.  Yields a one-element list.
    """
    from repro.core.engine import EngineRun

    total = [0]
    finish = EngineRun.finish

    @functools.wraps(finish)
    def wrapper(run, *args, **kwargs):
        result = finish(run, *args, **kwargs)
        total[0] += run.runner.info["native_replays"]
        return result

    with _patched([(EngineRun, "finish", wrapper)]):
        yield total


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = (len(ordered) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def layer_metrics(tracer: Tracer, wall_s: float, journal_bytes: int) -> dict:
    """The per-layer metric values of one traced repetition.

    *wall_s* is the repetition's traced host wall time; *journal_bytes*
    the size of the journals it wrote (measured before they are deleted).
    ``core.engine.native_s`` includes the C step it contains, so
    ``native_overhead_s`` is the Python bookkeeping around that call.
    """
    s, n = tracer.self_s, tracer.calls
    step_s = s["gpusim.fastpath.step"]
    native_s = s["core.engine.native"] + step_s
    iters = {tier: n[f"core.engine.{tier}"] for tier in TIERS}
    total_iters = sum(iters.values())
    m = {
        "batch.dispatch.construct_s": s["batch.dispatch.construct"],
        "batch.dispatch.construct_n": n["batch.dispatch.construct_jobs"],
        "batch.dispatch.job_ms_p50": _percentile(tracer.job_ms, 50),
        "batch.dispatch.job_ms_p99": _percentile(tracer.job_ms, 99),
    }
    for tier in TIERS:
        tier_s = native_s if tier == "native" else s[f"core.engine.{tier}"]
        m[f"core.engine.{tier}_s"] = tier_s
        m[f"core.engine.{tier}_iters"] = iters[tier]
    m.update(
        {
            "core.engine.ramp_iter_frac": (
                iters["ramp"] / total_iters if total_iters else 0.0
            ),
            "core.engine.finish_s": s["core.engine.finish"],
            "core.engine.native_overhead_s": native_s - step_s,
            "gpusim.fastpath.step_s": step_s,
            "gpusim.fastpath.step_n": n["gpusim.fastpath.step"],
            "gpusim.clock.advance_n": n["gpusim.clock.advance"],
            "gpusim.alloc.alloc_n": n["gpusim.alloc.alloc"],
            "gpusim.graph.native_job_frac": (
                tracer.native_jobs / tracer.graph_jobs
                if tracer.graph_jobs
                else 0.0
            ),
            "serve.self_s": s["serve.submit"] + s["serve.drain"],
            "serve.submit_n": n["serve.submit"],
            "serve.journal.append_s": s["serve.journal.append"],
            "serve.journal.append_n": n["serve.journal.append"],
            "serve.journal.bytes": journal_bytes,
            "io.fsync_s": s["io.fsync"],
            "io.fsync_n": n["io.fsync"],
            "reliability.checkpoint.save_s": s["reliability.checkpoint.save"],
            "reliability.checkpoint.save_n": n["reliability.checkpoint.save"],
            "batch.scheduler.self_s": s["batch.scheduler"],
            "batch.fused.execute_s": s["batch.fused.execute"],
            "batch.fused.groups_n": n["batch.fused.execute"],
            "tracing.unaccounted_frac": (
                1.0 - sum(s.values()) / wall_s if wall_s > 0 else 0.0
            ),
        }
    )
    return m
