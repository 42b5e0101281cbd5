"""Fused multi-swarm batching: ``m`` compatible jobs in one engine loop.

FastPSO's thesis is amortising fixed per-launch costs across one swarm;
this module amortises the *host-side engine loop* across many swarms.  The
batch scheduler still pays one Python iteration pipeline per job — for the
small/medium jobs the service shape targets, that pipeline is ~99% of host
wall clock.  The fused path stacks ``m`` compatible jobs (same engine
configuration, dim, swarm size and iteration budget; seeds, hyperparameters
and problems may differ) into ``m*n x d`` position/velocity/pbest tensors
and drives them through **one** loop:

* one stacked evaluation, pbest update and velocity/position update per
  iteration over all ``m`` swarms (NumPy amortises its per-op dispatch the
  way a batched kernel amortises launches);
* one batched per-swarm gbest reduction (``argmin`` over the ``(m, n)``
  view — first-tie semantics identical to the two-pass parallel reducer);
* per-swarm Philox streams, clocks, launchers and allocators: every member
  keeps the engine it would have run solo, so cost attribution, budgets,
  checkpoints and the result JSON stay per-swarm.

Bit-identity contract
---------------------
Every member's trajectory, simulated seconds and result are **bit-identical**
to its solo run.  The stacked array work performs the same IEEE operations
in the same order on each member's rows (row-stacking cannot change a row's
result for element-wise ops and row reductions), the per-member simulated
clock replays the member's own captured charge sequence (the same float
additions the solo loop performs), and the per-member RNG consumes exactly
the captured number of Philox blocks per iteration (asserted every round,
mirroring the launch graph's first-replay verification).

How a member joins the fast loop
--------------------------------
Each member runs a short solo *ramp* first (the launch-graph lifecycle of
:mod:`repro.gpusim.graph`, or an externally traced capture/validate pair for
engines running eagerly).  The ramp yields a :class:`LaunchGraph` whose
trace the fast loop replays.  Members whose iteration shape is
data-dependent — or whose remaining budget is too short — simply continue
solo; fusion is an optimisation, never a semantics change.

A few per-member accounting details intentionally diverge (and only those):
allocator pool hit/miss *counters* stop advancing during fused rounds (the
pool reached steady state during the ramp, so the high-water mark — what
``peak_device_bytes`` reports — is already exact), and aggregated
:class:`~repro.gpusim.launch.LaunchStats` are folded once per member at
finish (the same ``add_many`` reconciliation the launch graph uses).

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

import numpy as np

from repro.core.problem import Problem
from repro.core.swarm import position_update, velocity_update
from repro.core.swarm import draw_weights
from repro.core.topology import social_positions
from repro.errors import EvaluationError, GraphReplayError, InvalidParameterError
from repro.functions.inplace import make_inplace_evaluator
from repro.gpusim.costmodel import kernel_cost
from repro.gpusim.graph import traced_capture
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

_NAN_MESSAGE = (
    "evaluation produced NaN fitness values; FastPSO treats NaN "
    "as a user error rather than silently ranking it"
)


def _job_dim(job) -> int:
    return job.problem.dim if isinstance(job.problem, Problem) else job.dim


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
        "dyn_index",
        "rows",
        "fast_replays",
        "rng_before",
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
        self.dyn_index = None
        self.rows = slice(0, 0)
        self.fast_replays = 0
        self.rng_before = 0
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
    )


def _build_spec_map(engine) -> dict:
    """Kernel name -> KernelSpec for every kernel a captured iteration can
    reference (the engine's table plus the reducer's two passes)."""
    specs = {}
    for kernel in getattr(engine, "_kernels", {}).values():
        specs[kernel.spec.name] = kernel.spec
    reducer = engine.ctx.reducer
    specs[reducer._pass1.spec.name] = reducer._pass1.spec
    specs[reducer._pass2.spec.name] = reducer._pass2.spec
    return specs


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
        self.update_mode = None
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
            "update_mode": self.update_mode,
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
            # the member's swarm arrays to row views of the stacked
            # tensors, while a NativePlan keeps the raw addresses of the
            # arrays it was built on.
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
        ok = graph.matches(_traced_semantics(member))
        member.stopped = run.after_iteration(member.t)
        member.t += 1
        if not ok:
            member.solo_reason = "iteration-shape-changed"
            return None
        if member.stopped:
            member.solo_reason = "stopped-during-ramp"
            return None
        return graph

    def _validate_dynamic(self, member: _Member) -> bool:
        """The fast loop can re-derive at most one dynamic charge slot (the
        data-dependent pbest-copy); anything else means the iteration shape
        is not replayable."""
        dyn = [
            i for i, (_l, _s, dynamic) in enumerate(member.graph.trace)
            if dynamic
        ]
        if not dyn:
            member.dyn_index = None
            return True
        if len(dyn) == 1 and hasattr(member.engine, "_charge_pbest_copy"):
            member.dyn_index = dyn[0]
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

    def _pick_update_mode(self, engine) -> str:
        if getattr(engine, "half_storage", False):
            # fp16 storage: NumPy's value-based casting makes column-vector
            # coefficient broadcasts promote to float32 where the solo
            # scalar path stays float16 — stack everything *except* the
            # velocity/position update, which runs per member on row views.
            return "permember"
        if getattr(engine, "backend", None) == "tensorcore":
            return "wmma"
        return "scratch"

    def _fast_loop(self, fast: list) -> None:
        head = fast[0]
        n = head.run.n_particles
        d = head.run.problem.dim
        m_count = len(fast)
        rows = m_count * n
        dtype = getattr(head.engine, "storage_dtype", np.float32)
        self.update_mode = mode = self._pick_update_mode(head.engine)
        n_rounds = min(m.remaining for m in fast)
        if n_rounds <= 0:
            return

        # Stacked swarm tensors (m*n x d).  Copy members in, then rebind
        # each member's SwarmState arrays to its contiguous row block: the
        # member's own replay closures, checkpoints and solo tail steps all
        # keep working on the same storage.
        pos = np.empty((rows, d), dtype)
        vel = np.empty((rows, d), dtype)
        pb = np.empty((rows, d), dtype)
        pv = np.empty(rows, np.float64)
        values = np.empty(rows, np.float64)
        mask = np.empty(rows, bool)
        p64 = np.empty((rows, d), np.float64)
        stacked_update = mode in ("scratch", "wmma")
        # One combined (2, n, d) Philox draw per member per round replaces
        # the two (n, d) weight draws when the matrix element count is
        # counter-block aligned (n*d % 4 == 0): Philox is counter-based,
        # so the single call consumes the same blocks in the same order
        # and the two halves are bit-identical to the solo L and G
        # matrices — while halving the dominant per-round dispatch cost.
        combined_draw = (
            stacked_update and dtype == np.float32 and (n * d) % 4 == 0
        )
        if combined_draw:
            lg = np.empty((m_count, 2, n, d), np.float32)
            l_mat = lg[:, 0]  # (m, n, d) views of the per-member draws
            g_mat = lg[:, 1]
        else:
            l_mat = np.empty((rows, d), dtype)
            g_mat = np.empty((rows, d), dtype)
        for k, m in enumerate(fast):
            block = slice(k * n, (k + 1) * n)
            state = m.run.state
            pos[block] = state.positions
            vel[block] = state.velocities
            pb[block] = state.pbest_positions
            pv[block] = state.pbest_values
            state.positions = pos[block]
            state.velocities = vel[block]
            state.pbest_positions = pb[block]
            state.pbest_values = pv[block]
            m.rows = block

        if stacked_update:
            social = np.empty((rows, d), np.float32)
            w_col = np.empty((rows, 1), np.float32)
            c1_col = np.empty((rows, 1), np.float32)
            c2_col = np.empty((rows, 1), np.float32)
            any_clamp = any(
                m.run.problem.velocity_bounds(m.run.params.velocity_clamp)
                is not None
                for m in fast
            )
            vb_lo = vb_hi = None
            if any_clamp:
                # Members without a clamp keep +/-inf rows: clipping to an
                # infinite band is the identity (NaN and -0.0 included).
                vb_lo = np.full((rows, d), -np.inf, np.float32)
                vb_hi = np.full((rows, d), np.inf, np.float32)
            any_clip = any(m.run.params.clip_positions for m in fast)
            clip_lo = clip_hi = None
            if any_clip:
                clip_lo = np.full((rows, d), -np.inf, np.float32)
                clip_hi = np.full((rows, d), np.inf, np.float32)
                for m in fast:
                    if m.run.params.clip_positions:
                        problem = m.run.problem
                        clip_lo[m.rows] = problem.lower_bounds.astype(
                            np.float32
                        )
                        clip_hi[m.rows] = problem.upper_bounds.astype(
                            np.float32
                        )
            # The stacked update math runs on (m, n, d) views so the
            # combined-draw L/G operands (strided slices of ``lg``) and the
            # contiguous swarm tensors share one shape.  Reshaping a
            # contiguous (rows, d) array is a view; elementwise ufuncs are
            # stride-agnostic, so values are bit-identical either way.
            shape3 = (m_count, n, d)
            pos3 = pos.reshape(shape3)
            vel3 = vel.reshape(shape3)
            pb3 = pb.reshape(shape3)
            social3 = social.reshape(shape3)
            w3 = w_col.reshape(m_count, n, 1)
            c13 = c1_col.reshape(m_count, n, 1)
            c23 = c2_col.reshape(m_count, n, 1)
            l3 = l_mat if combined_draw else l_mat.reshape(shape3)
            g3 = g_mat if combined_draw else g_mat.reshape(shape3)
            vb_lo3 = vb_lo.reshape(shape3) if any_clamp else None
            vb_hi3 = vb_hi.reshape(shape3) if any_clamp else None
            clip_lo3 = clip_lo.reshape(shape3) if any_clip else None
            clip_hi3 = clip_hi.reshape(shape3) if any_clip else None
            if mode == "scratch":
                s1 = np.empty(shape3, np.float32)
                s2 = np.empty(shape3, np.float32)

        eval_blocks = self._eval_blocks(fast, p64, pos, n, d)

        for _ in range(n_rounds):
            for m in fast:
                m.rng_before = m.run.rng.position
            # -- eval: one stacked pass over all swarms ----------------------
            np.copyto(p64, pos)
            for (row_lo, row_hi, fn, block_members) in eval_blocks:
                if fn is not None:
                    out = fn(p64[row_lo:row_hi])
                    if np.any(np.isnan(out)):
                        raise EvaluationError(_NAN_MESSAGE)
                    values[row_lo:row_hi] = out
                else:
                    for m in block_members:
                        values[m.rows] = m.run.problem.evaluator.evaluate(
                            m.run.state.positions
                        )
            # -- pbest: one stacked compare-and-claim ------------------------
            np.less(values, pv, out=mask)
            pv[mask] = values[mask]
            pb[mask] = pos[mask]
            # -- gbest: batched per-swarm first-tie argmin -------------------
            best_idx = np.argmin(pv.reshape(m_count, n), axis=1)
            for k, m in enumerate(fast):
                state = m.run.state
                idx = int(best_idx[k])
                val = float(pv[k * n + idx])
                if val < state.gbest_value:
                    state.gbest_value = val
                    state.gbest_index = idx
                    state.gbest_position = state.pbest_positions[idx].copy()
            # -- swarm: per-member inputs, one stacked update ----------------
            if stacked_update:
                for k, m in enumerate(fast):
                    engine = m.engine
                    run = m.run
                    engine._progress = m.t / max(1, run.max_iter - 1)
                    p = engine._scheduled_params(run.params)
                    block = m.rows
                    w_col[block] = np.float32(p.inertia)
                    c1_col[block] = np.float32(p.cognitive)
                    c2_col[block] = np.float32(p.social)
                    if combined_draw:
                        run.rng.uniform((2, n, d), out=lg[k])
                    else:
                        draw_weights(
                            run.rng, n, d, out=(l_mat[block], g_mat[block])
                        )
                    social[block] = social_positions(run.state, p.topology)
                    vb = engine._current_velocity_bounds(run.problem, p)
                    if vb is not None:
                        vb_lo[block] = vb[0].astype(np.float32)
                        vb_hi[block] = vb[1].astype(np.float32)
                if mode == "scratch":
                    np.subtract(pb3, pos3, out=s1)
                    np.multiply(l3, s1, out=s1)
                    np.multiply(s1, c13, out=s1)
                    np.subtract(social3, pos3, out=s2)
                    np.multiply(g3, s2, out=s2)
                    np.multiply(s2, c23, out=s2)
                    np.multiply(vel3, w3, out=vel3)
                    np.add(vel3, s1, out=vel3)
                    np.add(vel3, s2, out=vel3)
                else:  # wmma
                    from repro.gpusim.tensorcore import fragment_multiply_add

                    cog = pb3 - pos3
                    soc = social3 - pos3
                    base = vel3 * w3
                    term1 = fragment_multiply_add(l3, cog)
                    term2 = fragment_multiply_add(g3, soc)
                    np.add(base, c13 * term1, out=vel3)
                    vel3 += c23 * term2
                if any_clamp:
                    np.clip(vel3, vb_lo3, vb_hi3, out=vel3)
                np.add(pos3, vel3, out=pos3)
                if any_clip:
                    np.clip(pos3, clip_lo3, clip_hi3, out=pos3)
            else:  # permember: fp16 keeps the solo scalar-coefficient path
                for m in fast:
                    engine = m.engine
                    run = m.run
                    state = run.state
                    engine._progress = m.t / max(1, run.max_iter - 1)
                    p = engine._scheduled_params(run.params)
                    block = m.rows
                    draw_weights(run.rng, n, d, out=(l_mat[block], g_mat[block]))
                    soc = social_positions(state, p.topology)
                    vb = engine._current_velocity_bounds(run.problem, p)
                    velocity_update(
                        state.velocities,
                        state.positions,
                        state.pbest_positions,
                        soc,
                        l_mat[block],
                        g_mat[block],
                        p,
                        vb,
                        out=state.velocities,
                    )
                    position_update(state.positions, state.velocities, run.problem, p)
            # -- per-member clock replay + bookkeeping -----------------------
            any_stopped = False
            for m in fast:
                consumed = m.run.rng.position - m.rng_before
                if consumed != m.graph.rng_blocks:
                    raise GraphReplayError(
                        "fused iteration consumed "
                        f"{consumed} RNG blocks for member {m.index}; capture "
                        f"recorded {m.graph.rng_blocks}"
                    )
                improved = int(np.count_nonzero(mask[m.rows]))
                engine = m.engine
                m.graph.charge(
                    engine.clock,
                    lambda: engine._charge_pbest_copy(improved, d),
                )
                if m.mode == "graph":
                    m.run.runner.info["replays"] += 1
                m.fast_replays += 1
                m.stopped = m.run.after_iteration(m.t)
                m.t += 1
                any_stopped = any_stopped or m.stopped
            self.fast_rounds += 1
            if any_stopped:
                # A member hit its budget/stop: leave the fast loop; the
                # survivors continue solo on their row views (bit-identical
                # either way — the fast loop is purely an optimisation).
                break

        self.saved_seconds_per_round = self._merged_saving(fast, n, d)

    def _eval_blocks(self, fast, p64, pos, n, d):
        """Contiguous same-problem row blocks with self-verified in-place
        evaluators (``fn=None`` blocks fall back to the members' own
        evaluators, still stacked row-wise)."""
        blocks = []
        start = 0
        while start < len(fast):
            end = start
            name = fast[start].run.problem.name
            while (
                end < len(fast) and fast[end].run.problem.name == name
            ):
                end += 1
            blocks.append((start, end))
            start = end

        np.copyto(p64, pos)
        out_blocks = []
        for (b_lo, b_hi) in blocks:
            block_members = fast[b_lo:b_hi]
            row_lo, row_hi = b_lo * n, b_hi * n
            name = block_members[0].run.problem.name
            fn = make_inplace_evaluator(name, row_hi - row_lo, d)
            if fn is not None:
                # Trust, but verify: the in-place evaluator must reproduce
                # every member's standard evaluator bit-for-bit on the
                # current positions before the loop relies on it.
                try:
                    got = fn(p64[row_lo:row_hi])
                    for k, m in enumerate(block_members):
                        ref = np.asarray(
                            m.run.problem.evaluator.evaluate(
                                m.run.state.positions
                            ),
                            dtype=np.float64,
                        )
                        if not np.array_equal(got[k * n:(k + 1) * n], ref):
                            fn = None
                            break
                except EvaluationError:
                    raise
                except Exception:
                    fn = None
            out_blocks.append((row_lo, row_hi, fn, block_members))
        return out_blocks

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
