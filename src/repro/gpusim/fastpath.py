"""Native iteration fast path: one C call per captured PSO iteration.

Graph replay (PR 4) removed the launch pipeline from the steady state but
still executes the iteration *body* — pbest claim, gbest reduction, two
Philox draws, velocity/position update — as a chain of NumPy ufunc sweeps.
This module compiles that body (``_fastpath.c``, via the shared
:mod:`repro.gpusim.native` loader) into a single ``fastpath_step`` call
operating in place on the run's stable buffers, and provides:

* :class:`NativePlan` — the per-run binding: a C-side ``fastpath_plan``
  struct built once at plan-install time from the swarm state, the
  workspace weight buffers and the RNG key schedule, plus the per-call
  :meth:`~NativePlan.step` that syncs the scalar gbest fields in/out and
  advances the Philox cursor;
* :func:`build_native` — the one native builder, called by
  :class:`~repro.gpusim.graph.IterationRunner` after the first verified
  Python replay: the shared refusals, the plan, and the step (evaluate,
  one C call, then the engine's charges for the captured iteration);
* :func:`verify_step` — the promotion gate: it runs the *trusted* Python
  replay on the real state and the C step on shadow copies of the
  pre-iteration state, then compares every output buffer bitwise.  The
  real run is therefore never touched by unverified native code; any
  mismatch simply keeps the run on the Python replay tier.

Bit-parity contract: the C step performs, per element, the exact IEEE
operation sequence of the NumPy scratch fast path (see ``_fastpath.c``),
claims pbest/gbest with the same strict-``<`` / first-NaN order, and
consumes exactly ``2 * ceil(n*d / 4)`` Philox blocks per iteration — the
same stream consumption :func:`repro.core.swarm.draw_weights` performs.

Set ``REPRO_NO_NATIVE_FASTPATH=1`` to disable (checked on every load);
no compiler or a failed known-answer self-test silently fall back to the
Python replay tier.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.gpusim import native

__all__ = [
    "load", "available", "NativePlan", "build_native", "verify_step", "ENV_GATE"
]

ENV_GATE = "REPRO_NO_NATIVE_FASTPATH"

_SOURCE = Path(__file__).with_name("_fastpath.c")
_PHILOX_SOURCE = Path(__file__).with_name("_philox.c")


class _PlanStruct(ctypes.Structure):
    """ctypes mirror of ``fastpath_plan`` in ``_fastpath.c`` (same order)."""

    _fields_ = [
        ("n", ctypes.c_uint64),
        ("d", ctypes.c_uint64),
        ("stream_id", ctypes.c_uint64),
        ("positions", ctypes.c_void_p),
        ("velocities", ctypes.c_void_p),
        ("pbest_positions", ctypes.c_void_p),
        ("pbest_values", ctypes.c_void_p),
        ("l_weights", ctypes.c_void_p),
        ("g_weights", ctypes.c_void_p),
        ("gbest_value", ctypes.c_void_p),
        ("gbest_index", ctypes.c_void_p),
        ("gbest_position", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("pos_lo", ctypes.c_void_p),
        ("pos_hi", ctypes.c_void_p),
        ("c1", ctypes.c_float),
        ("c2", ctypes.c_float),
    ]


def _require_f32(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.dtype != np.float32 or not arr.flags.c_contiguous or arr.shape != shape:
        raise ValueError(f"{name} must be C-contiguous float32 {shape}")


def _make_struct(
    n: int,
    d: int,
    stream_id: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    pbest_values: np.ndarray,
    l_weights: np.ndarray,
    g_weights: np.ndarray,
    gbest_value: np.ndarray,
    gbest_index: np.ndarray,
    gbest_position: np.ndarray,
    keys_addr: int,
    pos_lo: np.ndarray | None,
    pos_hi: np.ndarray | None,
    c1: float,
    c2: float,
) -> _PlanStruct:
    for name, arr in (
        ("positions", positions),
        ("velocities", velocities),
        ("pbest_positions", pbest_positions),
        ("l_weights", l_weights),
        ("g_weights", g_weights),
    ):
        _require_f32(name, arr, (n, d))
    _require_f32("gbest_position", gbest_position, (d,))
    if pbest_values.dtype != np.float64 or not pbest_values.flags.c_contiguous:
        raise ValueError("pbest_values must be C-contiguous float64")
    return _PlanStruct(
        n=n,
        d=d,
        stream_id=stream_id,
        positions=positions.ctypes.data,
        velocities=velocities.ctypes.data,
        pbest_positions=pbest_positions.ctypes.data,
        pbest_values=pbest_values.ctypes.data,
        l_weights=l_weights.ctypes.data,
        g_weights=g_weights.ctypes.data,
        gbest_value=gbest_value.ctypes.data,
        gbest_index=gbest_index.ctypes.data,
        gbest_position=gbest_position.ctypes.data,
        keys=keys_addr,
        pos_lo=None if pos_lo is None else pos_lo.ctypes.data,
        pos_hi=None if pos_hi is None else pos_hi.ctypes.data,
        c1=c1,
        c2=c2,
    )


def _self_test(lib: ctypes.CDLL) -> bool:
    """One full iteration, C vs the reference numerics, compared bitwise.

    The case is deliberately awkward: ``n*d = 30`` exercises the partial
    final Philox block, ``values`` contains a NaN (must never claim) and an
    exact tie (strict ``<`` keeps the earlier best), and both the velocity
    clamp and the position clip are active.
    """
    from repro.core.parameters import PAPER_DEFAULTS
    from repro.core.swarm import (
        SwarmState,
        draw_weights,
        gbest_scan,
        pbest_update,
        velocity_update,
    )
    from repro.gpusim.rng import ParallelRNG

    n, d = 6, 5
    params = PAPER_DEFAULTS
    init = ParallelRNG(seed=123, stream_id=0)
    positions = init.uniform((n, d), -5.0, 5.0, dtype=np.float32)
    velocities = init.uniform((n, d), -1.0, 1.0, dtype=np.float32)
    pbest_pos = init.uniform((n, d), -5.0, 5.0, dtype=np.float32)
    pbest_val = init.uniform((n,), 0.0, 50.0, dtype=np.float64)
    values = init.uniform((n,), 0.0, 60.0, dtype=np.float64)
    values[0] = np.nan  # NaN never claims
    values[1] = -1.0  # guaranteed claim -> guaranteed gbest claim
    values[3] = pbest_val[3]  # exact tie keeps the earlier best
    gval0, gidx0 = float(pbest_val[2]), 2
    gpos0 = pbest_pos[2].copy()
    vb64 = (np.full(d, -2.5, dtype=np.float64), np.full(d, 2.5, dtype=np.float64))
    plo = np.full(d, -4.0, dtype=np.float32)
    phi = np.full(d, 4.0, dtype=np.float32)

    # Reference: the shared module numerics, in replay order.
    rng_ref = ParallelRNG(seed=0xC0FFEE, stream_id=9)
    state = SwarmState(
        positions=positions.copy(),
        velocities=velocities.copy(),
        pbest_values=pbest_val.copy(),
        pbest_positions=pbest_pos.copy(),
        gbest_value=gval0,
        gbest_index=gidx0,
        gbest_position=gpos0.copy(),
    )
    mask = pbest_update(state, values)
    gbest_scan(state)
    l_ref = np.empty((n, d), dtype=np.float32)
    g_ref = np.empty((n, d), dtype=np.float32)
    draw_weights(rng_ref, n, d, out=(l_ref, g_ref))
    velocity_update(
        state.velocities,
        state.positions,
        state.pbest_positions,
        state.gbest_position,
        l_ref,
        g_ref,
        params,
        vb64,
        out=state.velocities,
        scratch=(
            np.empty((n, d), dtype=np.float32),
            np.empty((n, d), dtype=np.float32),
        ),
    )
    state.positions += state.velocities
    np.clip(state.positions, plo, phi, out=state.positions)

    # Native: same inputs through the C step.
    rng_nat = ParallelRNG(seed=0xC0FFEE, stream_id=9)
    c_pos, c_vel = positions.copy(), velocities.copy()
    c_pbv, c_pbp = pbest_val.copy(), pbest_pos.copy()
    c_l = np.empty((n, d), dtype=np.float32)
    c_g = np.empty((n, d), dtype=np.float32)
    c_gval = np.array([gval0], dtype=np.float64)
    c_gidx = np.array([gidx0], dtype=np.int64)
    c_gpos = gpos0.copy()
    struct = _make_struct(
        n, d, rng_nat.stream_id,
        c_pos, c_vel, c_pbp, c_pbv, c_l, c_g,
        c_gval, c_gidx, c_gpos, rng_nat._keys_addr,
        plo, phi, float(params.cognitive), float(params.social),
    )
    vlo32 = vb64[0].astype(np.float32)
    vhi32 = vb64[1].astype(np.float32)
    improved = lib.fastpath_step(
        ctypes.addressof(struct),
        values.ctypes.data,
        rng_nat.position,
        float(params.inertia),
        vlo32.ctypes.data,
        vhi32.ctypes.data,
    )
    return (
        int(improved) == int(np.count_nonzero(mask))
        and c_pos.tobytes() == state.positions.tobytes()
        and c_vel.tobytes() == state.velocities.tobytes()
        and c_pbv.tobytes() == state.pbest_values.tobytes()
        and c_pbp.tobytes() == state.pbest_positions.tobytes()
        and c_l.tobytes() == l_ref.tobytes()
        and c_g.tobytes() == g_ref.tobytes()
        and float(c_gval[0]) == state.gbest_value
        and int(c_gidx[0]) == state.gbest_index
        and c_gpos.tobytes()
        == np.ascontiguousarray(state.gbest_position, dtype=np.float32).tobytes()
    )


_MODULE = native.NativeModule(
    "fastpath",
    [_SOURCE, _PHILOX_SOURCE],
    env_gate=ENV_GATE,
    fn_specs={
        "fastpath_step": (
            ctypes.c_int64,
            # plan*, values*, block0, w, vlo*, vhi* — raw addresses so the
            # per-iteration call builds no ctypes wrapper objects.
            [
                ctypes.c_void_p,
                ctypes.c_void_p,
                ctypes.c_uint64,
                ctypes.c_float,
                ctypes.c_void_p,
                ctypes.c_void_p,
            ],
        ),
    },
    self_test=_self_test,
)


def load() -> ctypes.CDLL | None:
    """The bound fast-path library, or ``None`` when unavailable/disabled."""
    return _MODULE.load()


def available() -> bool:
    return _MODULE.available()


class NativePlan:
    """The per-run native binding: one struct, one hot call per iteration.

    Built by :func:`build_native` after the first verified Python replay.
    The struct holds raw addresses of the run's stable buffers (swarm
    matrices, workspace weight buffers, RNG key schedule) plus three small
    plan-owned buffers for the scalar gbest fields; :meth:`step` syncs
    those scalars from/to the ``SwarmState`` around the C call, so
    host-side observers (history recording, multi-GPU best exchange) keep
    seeing plain Python floats.

    ``state.gbest_position`` is re-pointed at the plan's own ``(d,)``
    buffer so the C claim can update it in place; an identity check each
    step re-syncs if outside code (e.g. multi-GPU ``_exchange_best``)
    re-assigned the attribute between iterations.
    """

    __slots__ = (
        "state",
        "rng",
        "n",
        "d",
        "blocks",
        "l_weights",
        "g_weights",
        "gval",
        "gidx",
        "gpos",
        "_fn",
        "_struct",
        "_addr",
        "_pos_lo",
        "_pos_hi",
        "_c1",
        "_c2",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        state,
        rng,
        l_weights: np.ndarray,
        g_weights: np.ndarray,
        params,
        pos_bounds: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        n, d = state.positions.shape
        self.state = state
        self.rng = rng
        self.n, self.d = n, d
        self.blocks = 2 * ((n * d + 3) // 4)
        self.l_weights = l_weights
        self.g_weights = g_weights
        self.gval = np.array([state.gbest_value], dtype=np.float64)
        self.gidx = np.array([state.gbest_index], dtype=np.int64)
        self.gpos = np.ascontiguousarray(state.gbest_position, dtype=np.float32).copy()
        if pos_bounds is None:
            self._pos_lo = self._pos_hi = None
        else:
            self._pos_lo = np.ascontiguousarray(pos_bounds[0], dtype=np.float32)
            self._pos_hi = np.ascontiguousarray(pos_bounds[1], dtype=np.float32)
        self._c1 = float(params.cognitive)
        self._c2 = float(params.social)
        self._fn = lib.fastpath_step
        self._struct = _make_struct(
            n, d, rng.stream_id,
            state.positions, state.velocities,
            state.pbest_positions, state.pbest_values,
            l_weights, g_weights,
            self.gval, self.gidx, self.gpos, rng._keys_addr,
            self._pos_lo, self._pos_hi, self._c1, self._c2,
        )
        self._addr = ctypes.addressof(self._struct)

    def step(
        self,
        values: np.ndarray,
        w: float,
        vlo: np.ndarray | None,
        vhi: np.ndarray | None,
    ) -> int:
        """One full iteration body in C; returns the improved-pbest count.

        *values* is this iteration's fitness vector (float64, contiguous —
        guaranteed by the evaluator contract and checked once during the
        verification iteration); *w* the scheduled inertia; *vlo*/*vhi* the
        current float32 velocity bounds or ``None``.
        """
        state, rng = self.state, self.rng
        # Sync the scalar gbest fields in (they are plain Python attributes
        # that outside code may have replaced since the last step).
        self.gval[0] = state.gbest_value
        self.gidx[0] = state.gbest_index
        if state.gbest_position is not self.gpos:
            np.copyto(self.gpos, state.gbest_position)
            state.gbest_position = self.gpos
        improved = self._fn(
            self._addr,
            values.ctypes.data,
            rng._block,
            w,
            None if vlo is None else vlo.ctypes.data,
            None if vhi is None else vhi.ctypes.data,
        )
        rng._block += self.blocks
        state.gbest_value = float(self.gval[0])
        state.gbest_index = int(self.gidx[0])
        return int(improved)


def _velocity_bounds_f32(engine, problem, p):
    """The engine's current velocity bounds as float32 ``(lo, hi)``, or
    ``(None, None)`` when the run does not clamp."""
    vb = engine._current_velocity_bounds(problem, p)
    if vb is None:
        return None, None
    return vb[0].astype(np.float32), vb[1].astype(np.float32)


def build_native(engine, graph, problem, params, state, rng):
    """Build the native tier for one run from its captured *graph*.

    Returns ``(step, verify)`` — ``step()`` runs one full iteration and
    ``verify(run_replay)`` is the :func:`verify_step` promotion gate — or a
    reason string naming why the run stays on the Python replay tier.

    The engine hook ``engine._graph_build_native(graph, problem, params,
    state)`` is asked first; it returns its own refusal, or ``(eval_fn,
    charge)``: the pure evaluation function (positions -> float64 values)
    and ``charge(improved)``, which charges the clock for one iteration
    from the capture.  The refusals every engine shares follow: the C step
    reads one social attractor row (global topology only), needs the
    compiled library, and consumes exactly the two ``ceil(n*d/4)``-block
    weight draws.
    """
    parts = engine._graph_build_native(graph, problem, params, state)
    if isinstance(parts, str):
        return parts
    if params.topology != "global":
        return f"native-unsupported-topology:{params.topology}"
    lib = load()
    if lib is None:
        return "native-unavailable"
    n, d = state.n_particles, state.dim
    if graph.rng_blocks != 2 * ((n * d + 3) // 4):
        return "native-rng-shape-mismatch"
    eval_fn, charge = parts
    pos_bounds = None
    if params.clip_positions:
        pos_bounds = (problem.lower_bounds, problem.upper_bounds)
    plan = NativePlan(
        lib,
        state,
        rng,
        engine._ws.array("l_weights", (n, d), np.float32),
        engine._ws.array("g_weights", (n, d), np.float32),
        params,
        pos_bounds,
    )

    def step() -> None:
        values = eval_fn(state.positions)
        p = engine._scheduled_params(params)
        vlo, vhi = _velocity_bounds_f32(engine, problem, p)
        charge(plan.step(values, float(p.inertia), vlo, vhi))

    def verify(run_replay) -> bool:
        return verify_step(plan, run_replay, eval_fn, engine, problem, params)

    return step, verify


def verify_step(plan: NativePlan, run_replay, eval_fn, engine, problem, params) -> bool:
    """Promotion gate: replay the real iteration, shadow-run the C step.

    Snapshots the pre-iteration state, lets the *trusted* Python replay
    mutate the real run, then executes the C step on the shadow copies
    (re-evaluating the objective on the pre-iteration positions — the
    evaluators are pure by contract) and compares every output buffer
    bitwise.  Returns ``True`` only on an exact match; the real run's
    trajectory is identical either way.  Exceptions from the replay
    propagate (they are real-run failures); exceptions from the shadow
    path just return ``False``.
    """
    state, rng = plan.state, plan.rng
    n, d = plan.n, plan.d
    pre_pos = state.positions.copy()
    pre_vel = state.velocities.copy()
    pre_pbv = state.pbest_values.copy()
    pre_pbp = state.pbest_positions.copy()
    pre_gval = float(state.gbest_value)
    pre_gidx = int(state.gbest_index)
    pre_gpos = np.ascontiguousarray(state.gbest_position, dtype=np.float32).copy()
    pre_block = rng.position
    p = engine._scheduled_params(params)
    vlo, vhi = _velocity_bounds_f32(engine, problem, p)

    run_replay()

    try:
        if rng.position - pre_block != plan.blocks:
            return False
        values = eval_fn(pre_pos)
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.flags.c_contiguous
            and values.shape == (n,)
        ):
            return False
        sh_l = np.empty((n, d), dtype=np.float32)
        sh_g = np.empty((n, d), dtype=np.float32)
        sh_gval = np.array([pre_gval], dtype=np.float64)
        sh_gidx = np.array([pre_gidx], dtype=np.int64)
        struct = _make_struct(
            n, d, rng.stream_id,
            pre_pos, pre_vel, pre_pbp, pre_pbv, sh_l, sh_g,
            sh_gval, sh_gidx, pre_gpos, rng._keys_addr,
            plan._pos_lo, plan._pos_hi, plan._c1, plan._c2,
        )
        plan._fn(
            ctypes.addressof(struct),
            values.ctypes.data,
            pre_block,
            float(p.inertia),
            None if vlo is None else vlo.ctypes.data,
            None if vhi is None else vhi.ctypes.data,
        )
        return (
            pre_pos.tobytes() == state.positions.tobytes()
            and pre_vel.tobytes() == state.velocities.tobytes()
            and pre_pbv.tobytes() == state.pbest_values.tobytes()
            and pre_pbp.tobytes() == state.pbest_positions.tobytes()
            and sh_l.tobytes() == plan.l_weights.tobytes()
            and sh_g.tobytes() == plan.g_weights.tobytes()
            and float(sh_gval[0]) == state.gbest_value
            and int(sh_gidx[0]) == int(state.gbest_index)
            and pre_gpos.tobytes()
            == np.ascontiguousarray(
                state.gbest_position, dtype=np.float32
            ).tobytes()
        )
    except Exception:
        return False
