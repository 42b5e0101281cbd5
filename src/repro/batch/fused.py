"""Fused multi-swarm batching: ``m`` compatible jobs in one engine loop.

FastPSO's thesis is amortising fixed per-launch costs across one swarm;
this module amortises the *objective evaluation* across many swarms.  The
fused path stacks the positions of ``m`` compatible jobs (same engine
configuration, dim, swarm size and iteration budget; seeds,
hyperparameters and problems may differ) into one ``m*n x d`` tensor, and
each fused round does two things:

* one stacked evaluation.  A stacked group is just a taller matrix, so it
  has no numerics of its own: each same-function row block is scored by
  one call to the registry function's own evaluator;
* each member's own iteration body on its row block of the values,
  :func:`repro.gpusim.graph.iteration_body` with flat accounting: the pbest
  claim, gbest scan, the engine's step (iv) and the member's captured
  accounting — the same call a solo run's Python replay makes.  Every member keeps the engine it would have run
  solo (Philox stream, clock, launcher, allocator, workspace), so cost
  attribution, budgets, checkpoints and the result JSON stay per-swarm.

Bit-identity contract
---------------------
Every member's trajectory, simulated seconds and result are **bit-identical**
to its solo run.  The stacked evaluation is checked at group start to
reproduce each member's own evaluator row for row (row-stacking cannot
change a row's result for row reductions), and everything after it is the
solo replay's own code on the member's arrays.  The per-member RNG
consumes exactly the captured number of Philox blocks per round (asserted
every round, mirroring the launch graph's first-replay verification).

How a member joins the fast loop
--------------------------------
Each member runs a short solo *ramp* first (the launch-graph lifecycle of
:mod:`repro.gpusim.graph`, or an externally traced capture/validate pair for
engines running eagerly).  The ramp yields a :class:`LaunchGraph` whose
trace the fast loop replays.  Members whose iteration shape is
data-dependent — or whose remaining budget is too short — simply continue
solo; fusion is an optimisation, never a semantics change.

Per-member accounting stays exact too: each fused round replays the
member's captured iteration through :meth:`LaunchGraph.charge`, which also
applies the captured allocator-counter delta, so ``ctx.allocator.stats``
(Table 4's pool hit/miss counters) advances exactly as in the solo run.
Only the aggregation point of :class:`~repro.gpusim.launch.LaunchStats`
differs: eager members' launches are folded once at finish (the same
``add_many`` reconciliation the launch graph uses).

Makespan model
--------------
A fused group occupies **one** launch stream.  Its lane time is the sum of
the members' solo simulated seconds minus the modelled per-iteration saving
of batch execution: aligned launch slots across members are re-priced as
one kernel over the summed element count (through the same memoized
``kernel_cost`` front door), and fixed per-iteration host overhead is paid
once instead of ``m`` times.  The saving is clamped to ``[0, sum - max]``
so a fused lane is never shorter than its longest member.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.core.problem import Problem
from repro.core.schema import BuiltinEvaluation
from repro.errors import EvaluationError, GraphReplayError, InvalidParameterError
from repro.functions.base import _REGISTRY
from repro.gpusim.costmodel import kernel_cost
from repro.gpusim.graph import iteration_body, traced_capture
from repro.gpusim.launch import resource_aware_config

__all__ = [
    "FUSABLE_ENGINES",
    "fusion_key",
    "plan_fused_groups",
    "FusedGroupRunner",
]

#: Canonical engine names the fused path can stack.  Both run Algorithm 1's
#: four-section body on (n, d) float32/float16 arrays with module-function
#: numerics; the CPU/library engines have per-engine loop structures the
#: stacked path does not reproduce.
FUSABLE_ENGINES = frozenset({"fastpso", "gpu-pso"})

#: Solo iterations a member runs before stacking: the launch-graph lifecycle
#: needs warmup/capture/validate/first-replay; an eager member needs
#: warmup (allocator pool misses) plus an externally traced capture and
#: validate pair.
RAMP_GRAPH = 4
RAMP_EAGER = 3


def _job_dim(job) -> int:
    return job.problem.dim if isinstance(job.problem, Problem) else job.dim


def _stack_key(problem):
    """The registry class whose evaluator may score *problem*'s rows stacked
    with other members', or ``None`` to evaluate the member on its own.

    Only a parameter-free registry function is the same function for every
    member naming it: ``Shifted``/``Rotated`` wrappers carry per-member
    parameters, and a user callable must never see ``m*n`` rows.
    """
    evaluator = problem.evaluator
    if type(evaluator) is not BuiltinEvaluation:
        return None
    cls = type(evaluator.function)
    return cls if _REGISTRY.get(cls.name) is cls else None


def _stacks_exactly(evaluate, members, pos, n) -> bool:
    """Whether *evaluate* on the members' stacked rows equals, row for row,
    each member's own evaluator on its own rows."""
    try:
        got = evaluate(pos[members[0].rows.start:members[-1].rows.stop])
    except EvaluationError:
        raise
    except Exception:
        return False
    return all(
        np.array_equal(
            got[k * n:(k + 1) * n],
            m.run.problem.evaluator.evaluate(m.run.state.positions),
        )
        for k, m in enumerate(members)
    )


def fusion_key(job, engine_options=None):
    """The compatibility key two jobs must share to stack, or ``None``.

    Jobs fuse when they resolve to the same canonical engine with the same
    constructor options and agree on ``(dim, n_particles, max_iter)`` —
    the tensor shapes and the loop length.  Problems, seeds and
    hyperparameters may differ freely.  ``engine_options`` overrides the
    job's own options (the scheduler passes the merged view that includes
    its fleet-wide ``graph`` default).
    """
    from repro.engines import resolve_engine

    canonical, implied = resolve_engine(job.engine)
    if canonical not in FUSABLE_ENGINES:
        return None
    opts = dict(
        engine_options if engine_options is not None else job.engine_options
    )
    merged = {**implied, **opts}
    if merged.get("record_launches"):
        # The per-launch log must show real launches in eager order; the
        # fast loop deliberately skips the launch pipeline.
        return None
    opt_key = tuple(sorted((k, repr(v)) for k, v in merged.items()))
    return (canonical, opt_key, _job_dim(job), job.n_particles, job.max_iter)


def plan_fused_groups(jobs, *, options_for=None, min_group: int = 2):
    """Partition *jobs* into fused groups (lists of indices into *jobs*).

    Jobs sharing a :func:`fusion_key` form one group; keys with fewer than
    ``min_group`` members — and jobs with no key — are left to the solo
    path.  Groups are ordered by their earliest submitted member, and
    members inside a group are ordered problem-first (so the stacked
    evaluation sees contiguous same-problem row blocks) with submission
    order breaking ties.  Pure bookkeeping over the job list: deterministic
    and side-effect free.
    """
    buckets: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        opts = options_for(job) if options_for is not None else None
        key = fusion_key(job, opts)
        if key is None:
            continue
        buckets.setdefault(key, []).append(i)
    groups = [
        sorted(members, key=lambda i: (jobs[i].problem_name, i))
        for members in buckets.values()
        if len(members) >= min_group
    ]
    groups.sort(key=lambda g: min(g))
    return groups


class _Member:
    """One job's live state inside a fused group."""

    __slots__ = (
        "index",
        "run",
        "graph",
        "mode",  # "graph" | "eager" | "solo"
        "solo_reason",
        "t",
        "stopped",
        "rows",
        "fast_replays",
        "spec_map",
        "result",
    )

    def __init__(self, index, run):
        self.index = index
        self.run = run
        self.graph = None
        self.mode = "solo"
        self.solo_reason = None
        self.t = run.start_iter
        self.stopped = False
        self.rows = slice(0, 0)
        self.fast_replays = 0
        self.spec_map = None
        self.result = None

    @property
    def remaining(self) -> int:
        return self.run.max_iter - self.t

    @property
    def engine(self):
        return self.run.engine


def _traced_semantics(member: _Member):
    """One traced ``run_semantics`` call at the member's iteration."""
    run = member.run
    engine = run.engine
    return traced_capture(
        engine.clock,
        engine.ctx.launcher,
        run.rng,
        lambda: run.run_semantics(member.t),
        engine.ctx.allocator,
    )


def _build_spec_map(engine) -> dict:
    """Kernel name -> KernelSpec for every kernel a captured iteration can
    reference (the engine's table plus the reducer's two passes)."""
    reducer = engine.ctx.reducer
    specs = [*engine._kernels.values(), reducer.pass1, reducer.pass2]
    return {spec.name: spec for spec in specs}


class FusedGroupRunner:
    """Drives one fused group: ramp, stacked fast loop, solo tails, finish.

    Construct with ``(index, EngineRun)`` pairs from
    :meth:`~repro.core.engine.Engine.start_run` — every member keeps its own
    engine (clock, launcher, allocator, Philox stream), budget, checkpoint
    manager and guard exactly as the solo path would have passed them.
    :meth:`execute` returns the members' :class:`OptimizeResult` objects in
    construction order, each bit-identical to the member's solo run.
    """

    def __init__(self, runs) -> None:
        if not runs:
            raise InvalidParameterError("a fused group needs at least one run")
        self.members = [_Member(index, run) for index, run in runs]
        self.fast_rounds = 0
        self.saved_seconds_per_round = 0.0
        self.lane_seconds = 0.0
        self.results: list = []

    # -- public ---------------------------------------------------------------
    def execute(self) -> list:
        for member in self.members:
            self._ramp(member)
        fast = self._fast_set()
        if len(fast) >= 2:
            self._fast_loop(fast)
        for member in self.members:
            while not member.stopped and member.t < member.run.max_iter:
                member.stopped = member.run.step(member.t)
                member.t += 1
        for member in self.members:
            if (
                member.mode == "eager"
                and member.fast_replays
                and member.graph is not None
            ):
                # Eager members' fused rounds bypassed the launcher; fold
                # their launch statistics exactly like graph replay does.
                member.graph.flush_stats(
                    member.engine.ctx.launcher.stats, member.fast_replays
                )
            member.result = member.run.finish()
        self.results = [m.result for m in self.members]
        self.lane_seconds = self._lane_seconds()
        return self.results

    def info(self) -> dict:
        """Execution metadata for benchmarks and the scheduler's records."""
        return {
            "n_members": len(self.members),
            "n_fused": sum(1 for m in self.members if m.fast_replays > 0),
            "fast_rounds": self.fast_rounds,
            "saved_seconds_per_round": self.saved_seconds_per_round,
            "lane_seconds": self.lane_seconds,
            "solo_reasons": {
                str(m.index): m.solo_reason
                for m in self.members
                if m.solo_reason is not None
            },
        }

    # -- ramp -----------------------------------------------------------------
    def _ramp(self, member: _Member) -> None:
        run = member.run
        runner = run.runner
        if getattr(run.engine, "ctx", None) is None:
            member.solo_reason = "no-gpu-context"
            return
        if runner.info["mode"] == "graph":
            # Pin the runner to the Python replay tier.  The checks below
            # expect phase "replay" after RAMP_GRAPH steps (a promotion
            # would leave it at "native-verify"), and the fast loop rebinds
            # the member's positions to a row view of the stacked tensor,
            # while a NativePlan keeps the raw addresses of the arrays it
            # was built on.
            runner.allow_native = False
            for _ in range(RAMP_GRAPH):
                if member.stopped or member.t >= run.max_iter:
                    break
                member.stopped = run.step(member.t)
                member.t += 1
            if runner.phase != "replay":
                member.solo_reason = (
                    runner.info.get("eager_reason") or "ramp-incomplete"
                )
                return
            member.graph = runner.graph
            member.mode = "graph"
        else:
            graph = self._eager_capture(member)
            if graph is None:
                return
            member.graph = graph
            member.mode = "eager"
        if not self._validate_dynamic(member):
            member.graph = None
            member.mode = "solo"
            return
        member.spec_map = _build_spec_map(run.engine)

    def _eager_capture(self, member: _Member):
        """Warmup / capture / validate for a member running eagerly.

        Tracing never changes the float accumulation, so if validation fails
        the member just continues solo, having run three perfectly ordinary
        iterations.
        """
        run = member.run
        if member.remaining < RAMP_EAGER + 1:
            member.solo_reason = "too-few-iterations"
            # Not enough headroom to capture, validate and still profit.
            return None
        member.stopped = run.step(member.t)  # warmup: pool misses, cold caches
        member.t += 1
        if member.stopped:
            member.solo_reason = "stopped-during-ramp"
            return None
        graph = _traced_semantics(member)
        member.stopped = run.after_iteration(member.t)
        member.t += 1
        if member.stopped:
            member.solo_reason = "stopped-during-ramp"
            return None
        reason = graph.mismatch(_traced_semantics(member))
        member.stopped = run.after_iteration(member.t)
        member.t += 1
        if reason is not None:
            member.solo_reason = reason
            return None
        if member.stopped:
            member.solo_reason = "stopped-during-ramp"
            return None
        return graph

    def _validate_dynamic(self, member: _Member) -> bool:
        """The fast loop can re-derive at most one dynamic charge slot (the
        data-dependent pbest-copy); anything else means the iteration shape
        is not replayable."""
        n_dynamic = sum(1 for _l, _s, dynamic in member.graph.trace if dynamic)
        if n_dynamic <= 1:
            return True
        member.solo_reason = "unreplayable-dynamic-charges"
        return False

    # -- the stacked fast loop -------------------------------------------------
    def _fast_set(self) -> list:
        fast = [
            m
            for m in self.members
            if m.graph is not None and not m.stopped and m.remaining > 0
        ]
        if len(fast) < 2:
            return fast
        head = fast[0]
        n = head.run.n_particles
        d = head.run.problem.dim
        dtype = getattr(head.engine, "storage_dtype", np.float32)
        compatible = []
        for m in fast:
            if (
                m.run.n_particles == n
                and m.run.problem.dim == d
                and getattr(m.engine, "storage_dtype", np.float32) == dtype
                and m.run.state.positions.dtype == dtype
            ):
                compatible.append(m)
            else:
                m.solo_reason = "shape-mismatch"
                m.graph = None
                m.mode = "solo"
        return compatible

    def _fast_loop(self, fast: list) -> None:
        head = fast[0]
        n = head.run.n_particles
        d = head.run.problem.dim
        n_rounds = min(m.remaining for m in fast)
        if n_rounds <= 0:
            return

        # Only the positions are stacked (m*n x d): copy members in, then
        # rebind each member's positions to its contiguous row block, so
        # the stacked evaluation reads what the member's own iteration body,
        # checkpoints and solo steps write.
        pos = np.empty((len(fast) * n, d), head.run.state.positions.dtype)
        values = np.empty(len(fast) * n, np.float64)
        for k, m in enumerate(fast):
            m.rows = slice(k * n, (k + 1) * n)
            pos[m.rows] = m.run.state.positions
            m.run.state.positions = pos[m.rows]

        eval_blocks = self._eval_blocks(fast, pos, n)

        for _ in range(n_rounds):
            # -- eval: one evaluator call per stacked row block --------------
            for rows, evaluate in eval_blocks:
                values[rows] = evaluate(pos[rows])
            # -- each member's iteration body and bookkeeping ---------------
            any_stopped = False
            for m in fast:
                run = m.run
                engine = run.engine
                engine._progress = m.t / max(1, run.max_iter - 1)
                rng_before = run.rng.position
                iteration_body(
                    engine, run.problem, run.params, run.state, run.rng,
                    m.graph, values[m.rows],
                )
                consumed = run.rng.position - rng_before
                if consumed != m.graph.rng_blocks:
                    raise GraphReplayError(
                        "fused iteration consumed "
                        f"{consumed} RNG blocks for member {m.index}; capture "
                        f"recorded {m.graph.rng_blocks}"
                    )
                if m.mode == "graph":
                    run.runner.info["replays"] += 1
                m.fast_replays += 1
                m.stopped = run.after_iteration(m.t)
                m.t += 1
                any_stopped = any_stopped or m.stopped
            self.fast_rounds += 1
            if any_stopped:
                # A member hit its budget/stop: leave the fast loop; the
                # survivors continue solo on their row views (bit-identical
                # either way — the fast loop is purely an optimisation).
                break

        self.saved_seconds_per_round = self._merged_saving(fast, n, d)

    def _eval_blocks(self, fast, pos, n):
        """``(rows, evaluate)`` pairs covering the stacked rows.

        Contiguous members sharing a :func:`_stack_key` form one block,
        scored by one call to the first member's own evaluator; every other
        member is a block of its own.  Trust, but verify: a stacked block
        must reproduce each member's own evaluator bit-for-bit on the
        current positions, or it splits back into per-member blocks.
        """
        blocks = []
        # An unstackable member keys on itself, so it never joins a block.
        for _, group in groupby(fast, lambda m: _stack_key(m.run.problem) or m):
            members = list(group)
            rows = slice(members[0].rows.start, members[-1].rows.stop)
            evaluate = members[0].run.problem.evaluator.evaluate
            if len(members) == 1 or _stacks_exactly(evaluate, members, pos, n):
                blocks.append((rows, evaluate))
            else:
                blocks += [(m.rows, m.run.problem.evaluator.evaluate) for m in members]
        return blocks

    # -- the lane (makespan) model --------------------------------------------
    def _merged_saving(self, fast, n, d) -> float:
        """Modelled simulated seconds one fused round saves versus ``m``
        solo iterations, from re-pricing aligned launch slots at the summed
        element count plus paying fixed host overhead once.

        Conservative on failure: any model irregularity (per-member launch
        sequences that don't align, unknown kernels) yields a saving of 0,
        so the fused lane is never under-billed.  Dynamic charges (the
        pbest copy) stay per-member and are excluded from the merge.
        """
        try:
            static_seconds = [
                sum(s for (_l, s, dyn) in m.graph.trace if not dyn)
                for m in fast
            ]
            launch_seconds = [
                sum(entry[4].seconds for entry in m.graph.launches)
                for m in fast
            ]
            n_slots = len(fast[0].graph.launches)
            if any(len(m.graph.launches) != n_slots for m in fast):
                return 0.0
            ctx = fast[0].engine.ctx
            device, cost_params = ctx.spec, ctx.launcher.cost_params
            merged = 0.0
            for slot in range(n_slots):
                by_spec: dict = {}
                for m in fast:
                    name, _sec, n_elems, cfg, _cost = m.graph.launches[slot]
                    spec = m.spec_map[name]
                    key = (spec, cfg.threads_per_block)
                    by_spec[key] = by_spec.get(key, 0) + n_elems
                for (spec, tpb), total_elems in by_spec.items():
                    cfg = resource_aware_config(
                        device,
                        total_elems,
                        threads_per_block=tpb,
                        kernel_spec=spec,
                    )
                    merged += kernel_cost(
                        device, spec, cfg, total_elems, cost_params
                    ).seconds
            overheads = [
                s - k for s, k in zip(static_seconds, launch_seconds)
            ]
            merged_total = merged + max(overheads)
            merged_total = min(
                max(merged_total, max(static_seconds)), sum(static_seconds)
            )
            return sum(static_seconds) - merged_total
        except Exception:
            return 0.0

    def _lane_seconds(self) -> float:
        elapsed = [
            m.result.elapsed_seconds for m in self.members if m.result is not None
        ]
        total = sum(elapsed)
        lane = total - self.fast_rounds * self.saved_seconds_per_round
        floor = max(elapsed, default=0.0)
        return max(lane, floor)
