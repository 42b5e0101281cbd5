"""Native iteration fast path: one C call per captured PSO iteration.

A Python replay iteration (:mod:`repro.gpusim.graph`) is the eager body's
numerics plus one flat :meth:`~repro.gpusim.graph.LaunchGraph.charge`; its
numerics — pbest claim, gbest scan, two Philox draws, velocity bounds,
velocity/position update — still run as a chain of NumPy ufunc sweeps.
This module compiles those numerics (``_fastpath.c``, via the shared
:mod:`repro.gpusim.native` loader) into a single ``fastpath_step`` call
operating in place on the run's stable buffers, and keeps the charge
unchanged.  It provides:

* :class:`NativePlan` — the per-run binding: a C-side ``fastpath_plan``
  struct built once at plan-install time from the swarm state, the
  workspace weight buffers, the RNG key schedule, the run's float64
  base velocity bounds and a plan-owned fitness buffer, plus the
  per-call :meth:`~NativePlan.step` that syncs the scalar gbest fields
  in/out and advances the Philox cursor;
* :func:`build_native` — the one native builder, called by
  :class:`~repro.gpusim.graph.IterationRunner` after the first verified
  Python replay: the shared refusals, the plan, and the step.  A native
  Sphere iteration is two things: one C call, which scores the swarm
  with ``sphere_rows`` into the plan's fitness buffer before the update,
  and one :meth:`~repro.gpusim.graph.LaunchGraph.charge` — the captured
  clock charges in captured order plus the captured allocator-counter
  delta, with the engine's pbest-copy charge in the dynamic slot.  Any
  other objective is evaluated in Python first and copied into the
  buffer;
* :func:`verify_step` — the promotion gate: it runs the *trusted* Python
  replay on the real state and the C step on shadow copies of the
  pre-iteration state, then compares every output buffer bitwise, the
  C-scored Sphere values against the evaluator's included.  The
  real run is therefore never touched by unverified native code; any
  mismatch simply keeps the run on the Python replay tier.

Bit-parity contract: the C step performs, per element, the exact IEEE
operation sequence of :func:`repro.core.swarm.velocity_update`'s scratch path
(see ``_fastpath.c``), computes the float32 velocity bounds as
``(float)(lo * frac)`` — the float64 multiply of
``Engine._current_velocity_bounds`` and NumPy's float32 cast — claims
pbest/gbest with the same strict-``<`` / first-NaN order, and consumes
exactly ``2 * ceil(n*d / 4)`` Philox blocks per iteration — the same
stream consumption :func:`repro.core.swarm.draw_weights` performs.

The same library exports ``fp16_product``, the tensor-core backend's
fp16-rounded Hadamard product, which
:func:`repro.gpusim.tensorcore.fragment_multiply_add` calls on every tier
that runs Python numerics; the self-test checks it byte for byte against
NumPy's fp16 round trip.

It exports the Philox fills ``philox_unit_f32`` and ``philox_unit_f64``
from ``_philox.c``, which it ``#include``\\ s: every
:class:`~repro.gpusim.rng.ParallelRNG` draws through them, and the
self-test checks them against :func:`~repro.gpusim.rng.philox4x32`.

It also exports ``sphere_rows``, the Sphere objective's row sums of
squares, which :func:`sphere_rows` wraps for
:meth:`repro.functions.sphere.Sphere.evaluate` on the Python tiers and
``fastpath_step`` runs itself on a Sphere plan.  Its
contract is bit-identity with ``np.einsum("ij,ij->i", p, p)`` on the
float64 copy ``p``: the C kernel copies the summation order of NumPy's
2-lane einsum inner loop (see ``_fastpath.c``).  That order belongs to
the NumPy build, not to this library, so the kernel has its own
known-answer check against ``np.einsum``; a mismatch disables only the
kernel (and the in-step Sphere with it), never ``fastpath_step``.

:func:`load` builds the library once per process (:mod:`repro.gpusim.native`)
and reads ``REPRO_NO_NATIVE_FASTPATH`` on every call: set it to turn every
native path off (:func:`build_native` then names its refusal
``disabled-by-env``).  No compiler or a failed known-answer self-test
silently fall back to the Python replay tier, the NumPy Philox path, the
NumPy fp16 round trip and einsum, all bit-identical.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.errors import GraphReplayError
from repro.gpusim import native

__all__ = [
    "load",
    "available",
    "sphere_rows",
    "NativePlan",
    "build_native",
    "verify_step",
    "ENV_GATE",
]

ENV_GATE = "REPRO_NO_NATIVE_FASTPATH"


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
        ("values", ctypes.c_void_p),
        ("l_weights", ctypes.c_void_p),
        ("g_weights", ctypes.c_void_p),
        ("gbest_value", ctypes.c_void_p),
        ("gbest_index", ctypes.c_void_p),
        ("gbest_position", ctypes.c_void_p),
        ("keys", ctypes.c_void_p),
        ("pos_lo", ctypes.c_void_p),
        ("pos_hi", ctypes.c_void_p),
        ("vel_lo", ctypes.c_void_p),
        ("vel_hi", ctypes.c_void_p),
        ("vel_lo32", ctypes.c_void_p),
        ("vel_hi32", ctypes.c_void_p),
        ("c1", ctypes.c_float),
        ("c2", ctypes.c_float),
        ("sphere", ctypes.c_uint64),
    ]


#: ``fastpath_step``'s return when the in-step Sphere scored a NaN row
#: (``FASTPATH_NAN_ROW`` in ``_fastpath.c``); the run state is untouched.
NAN_ROW = -1


def _require_f32(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.dtype != np.float32 or not arr.flags.c_contiguous or arr.shape != shape:
        raise ValueError(f"{name} must be C-contiguous float32 {shape}")


class _Bounds:
    """The plan's per-run bound buffers: float32 position clip bounds and
    float64 base velocity bounds (each pair ``None`` when off), plus the
    ``(d,)`` float32 buffers the C step writes each call's velocity
    bounds into."""

    __slots__ = ("pos_lo", "pos_hi", "vel_lo", "vel_hi", "vel_lo32", "vel_hi32")

    def __init__(self, d: int, pos_bounds, vel_bounds) -> None:
        self.pos_lo = self.pos_hi = None
        if pos_bounds is not None:
            self.pos_lo = np.ascontiguousarray(pos_bounds[0], dtype=np.float32)
            self.pos_hi = np.ascontiguousarray(pos_bounds[1], dtype=np.float32)
        self.vel_lo = self.vel_hi = self.vel_lo32 = self.vel_hi32 = None
        if vel_bounds is not None:
            for arr in vel_bounds:
                if (
                    arr.dtype != np.float64
                    or not arr.flags.c_contiguous
                    or arr.shape != (d,)
                ):
                    raise ValueError(
                        f"velocity bounds must be C-contiguous float64 {(d,)}"
                    )
            self.vel_lo, self.vel_hi = vel_bounds
            self.vel_lo32 = np.empty(d, dtype=np.float32)
            self.vel_hi32 = np.empty(d, dtype=np.float32)


def _addr(arr: np.ndarray | None):
    return None if arr is None else arr.ctypes.data


def _make_struct(
    n: int,
    d: int,
    stream_id: int,
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    pbest_values: np.ndarray,
    values: np.ndarray,
    l_weights: np.ndarray,
    g_weights: np.ndarray,
    gbest_value: np.ndarray,
    gbest_index: np.ndarray,
    gbest_position: np.ndarray,
    keys_addr: int,
    bounds: _Bounds,
    c1: float,
    c2: float,
    sphere: bool,
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
    for name, arr in (("pbest_values", pbest_values), ("values", values)):
        if (
            arr.dtype != np.float64
            or not arr.flags.c_contiguous
            or arr.shape != (n,)
        ):
            raise ValueError(f"{name} must be C-contiguous float64 {(n,)}")
    return _PlanStruct(
        n=n,
        d=d,
        stream_id=stream_id,
        positions=positions.ctypes.data,
        velocities=velocities.ctypes.data,
        pbest_positions=pbest_positions.ctypes.data,
        pbest_values=pbest_values.ctypes.data,
        values=values.ctypes.data,
        l_weights=l_weights.ctypes.data,
        g_weights=g_weights.ctypes.data,
        gbest_value=gbest_value.ctypes.data,
        gbest_index=gbest_index.ctypes.data,
        gbest_position=gbest_position.ctypes.data,
        keys=keys_addr,
        pos_lo=_addr(bounds.pos_lo),
        pos_hi=_addr(bounds.pos_hi),
        vel_lo=_addr(bounds.vel_lo),
        vel_hi=_addr(bounds.vel_hi),
        vel_lo32=_addr(bounds.vel_lo32),
        vel_hi32=_addr(bounds.vel_hi32),
        c1=c1,
        c2=c2,
        sphere=sphere,
    )


def _self_test(lib: ctypes.CDLL) -> bool:
    """The library's known-answer check, run by :func:`load` before first use.

    The Philox fills against the reference bijection, then full iterations,
    C vs the reference numerics, compared bitwise.  The step cases are
    deliberately awkward: ``n*d = 30`` exercises the partial final Philox
    block, ``values`` contains a NaN (must never claim) and an exact tie
    (strict ``<`` keeps the earlier best), the velocity bounds differ per
    dimension, and the runs cover a full-width clamp with the position
    clip, an adaptive clamp at a fraction that is inexact in float32, and
    an unclamped, unclipped update.  Last, ``fp16_product``.
    """
    d = 5
    vel_bounds = (-np.linspace(0.7, 2.9, d), np.linspace(0.9, 3.1, d))
    pos_bounds = (np.full(d, -4.0), np.full(d, 4.0))
    return (
        _self_test_philox(lib)
        and _self_test_case(lib, vel_bounds, 1.0, pos_bounds)
        and _self_test_case(lib, vel_bounds, 0.6180339887, pos_bounds)
        and _self_test_case(lib, None, 1.0, None)
        and _self_test_fp16(lib)
    )


def _reference_unit(seed: int, sid: int, block0: int, n_blocks: int) -> np.ndarray:
    """Unit float64 draws of blocks ``block0 ..`` from the reference bijection."""
    from repro.gpusim.rng import philox4x32

    idx = np.arange(block0, block0 + n_blocks, dtype=np.uint64)
    ctr = np.empty((n_blocks, 4), dtype=np.uint32)
    ctr[:, 0] = (idx & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    ctr[:, 1] = (idx >> np.uint64(32)).astype(np.uint32)
    ctr[:, 2] = np.uint32(sid & 0xFFFFFFFF)
    ctr[:, 3] = np.uint32(sid >> 32)
    words = philox4x32(
        ctr,
        np.array(
            [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF], dtype=np.uint32
        ),
    )
    return (words.reshape(-1).astype(np.float64) + 0.5) * 2.0**-32


def _self_test_philox(lib) -> bool:
    """``philox_unit_f64`` and ``philox_unit_f32`` vs :func:`philox4x32`.

    Both fills cross every loop of ``_philox.c`` at its group sizes (32
    blocks per AVX-512 group, 16 per AVX2 group, 8 or 4 per vector).  The
    float64 case fills 43 whole blocks: one AVX-512 group (two AVX2
    groups), one-vector groups up to block 40 and three scalar blocks.  The
    float32 case starts at an odd block just below the 2^32 counter carry,
    with a stream id whose high word is set, and fills 175 values (44
    blocks): the same 43 whole blocks, then a partial last block.
    """
    from repro.gpusim.rng import PHILOX_ROUNDS, _key_schedule

    seed = 0x1234_5678_9ABC_DEF0
    keys = np.array(
        [
            half
            for pair in _key_schedule(
                seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, PHILOX_ROUNDS
            )
            for half in pair
        ],
        dtype=np.uint32,
    )
    sid, block0, n_blocks = 7, 3, 43
    got = np.empty(4 * n_blocks, dtype=np.float64)
    lib.philox_unit_f64(block0, sid, n_blocks, keys.ctypes.data, got.ctypes.data)
    if not np.array_equal(got, _reference_unit(seed, sid, block0, n_blocks)):
        return False
    sid, block0, count = 0xA5A5_0001_0000_0003, 2**32 - 33, 175
    got32 = np.empty(count, dtype=np.float32)
    lib.philox_unit_f32(block0, sid, count, keys.ctypes.data, got32.ctypes.data)
    want32 = _reference_unit(seed, sid, block0, -(-count // 4))[:count]
    return got32.tobytes() == want32.astype(np.float32).tobytes()


#: float32 bit patterns for the fp16 known-answer case: signed zeros, a
#: float32 subnormal, the fp16 subnormal ties 2^-25 and 3 * 2^-25, 2^-24,
#: the largest float below 2^-14 and 2^-14 itself, 65504, the largest
#: float that rounds to 65504, 65520 (rounds to inf), infinities, a quiet
#: NaN, and signalling NaNs whose payload sits below and above the 13 bits
#: the fp16 rounding drops.
_FP16_PROBES = np.array(
    [
        0x00000000, 0x80000000, 0x00000001, 0x33000000, 0x33C00000,
        0x33800000, 0x387FFFFF, 0x38800000, 0x477FE000, 0x477FEFFF,
        0x477FF000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001,
        0xFFA00000, 0x3F800001, 0xBEAAAAAB, 0x3DCCCCCD,
    ],
    dtype=np.uint32,
).view(np.float32)


def _self_test_fp16(lib) -> bool:
    """``fp16_product`` vs the NumPy fp16 round trip, byte for byte.

    Every probe meets every probe, so the 361 products cover the F16C
    vector body, the NaN-lane scalar groups and the scalar tail.
    """
    a = np.repeat(_FP16_PROBES, _FP16_PROBES.size)
    b = np.tile(_FP16_PROBES, _FP16_PROBES.size)
    got = np.empty_like(a)
    lib.fp16_product(a.ctypes.data, b.ctypes.data, got.ctypes.data, a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        want = a.astype(np.float16).astype(np.float32) * b.astype(
            np.float16
        ).astype(np.float32)
    return got.tobytes() == want.tobytes()


def _self_test_case(lib, vel_bounds, frac: float, pos_bounds) -> bool:
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
    pre = SwarmState(
        positions=positions,
        velocities=velocities,
        pbest_values=pbest_val,
        pbest_positions=pbest_pos,
        gbest_value=float(pbest_val[2]),
        gbest_index=2,
        gbest_position=pbest_pos[2].copy(),
    )

    # Reference: the shared module numerics, in replay order, with the
    # bounds scaled as Engine._current_velocity_bounds scales them.
    rng_ref = ParallelRNG(seed=0xC0FFEE, stream_id=9)
    state = pre.copy()  # *pre* stays the C step's shadow input
    mask = pbest_update(state, values)
    gbest_scan(state)
    l_ref = np.empty((n, d), dtype=np.float32)
    g_ref = np.empty((n, d), dtype=np.float32)
    draw_weights(rng_ref, n, d, out=(l_ref, g_ref))
    vb = None if vel_bounds is None else tuple(b * frac for b in vel_bounds)
    velocity_update(
        state.velocities,
        state.positions,
        state.pbest_positions,
        state.gbest_position,
        l_ref,
        g_ref,
        params,
        vb,
        out=state.velocities,
        scratch=(
            np.empty((n, d), dtype=np.float32),
            np.empty((n, d), dtype=np.float32),
        ),
    )
    state.positions += state.velocities
    if pos_bounds is not None:
        np.clip(
            state.positions,
            pos_bounds[0].astype(np.float32),
            pos_bounds[1].astype(np.float32),
            out=state.positions,
        )

    # Native: same inputs through the C step, from the same Philox block.
    improved = _shadow_step(
        lib.fastpath_step,
        pre,
        rng_ref,
        0,
        _Bounds(d, pos_bounds, vel_bounds),
        params,
        values,
        frac,
        state,
        (l_ref, g_ref),
        vb,
    )
    return improved == int(np.count_nonzero(mask))


def _shadow_step(
    fn, pre, rng, block, bounds, params, values, frac, ref, ref_weights, ref_vb,
    sphere=False,
) -> int | None:
    """One C step on *pre*, a shadow copy of the pre-iteration state,
    compared bitwise with a reference iteration.

    The C step runs in place on *pre*'s swarm arrays (C-contiguous, owned
    by the caller) and on fresh fitness, weight and gbest buffers.  It
    draws from *rng*'s stream at Philox *block* and uses *bounds*, the
    ``w``/``c1``/``c2`` of *params* and the clamp fraction *frac*.
    *values* is the reference fitness of *pre*'s positions: the C step
    reads a copy of it, or, with *sphere* set, scores Sphere itself into
    a buffer of NaNs.  *ref* is the state after the reference iteration,
    *ref_weights* its L and G matrices and *ref_vb* its velocity bounds
    (``None`` when unclamped).  Returns the C step's improved-pbest count
    when every output matches — the fitness, positions, velocities, pbest
    values and positions, L, G, the gbest value, index and position, and
    the float32 velocity bounds — else ``None``.
    """
    n, d = pre.positions.shape
    pos, vel = pre.positions, pre.velocities
    pbv, pbp = pre.pbest_values, pre.pbest_positions
    vals = np.full(n, np.nan) if sphere else np.array(values, dtype=np.float64)
    l_w = np.empty((n, d), dtype=np.float32)
    g_w = np.empty((n, d), dtype=np.float32)
    gval = np.array([pre.gbest_value], dtype=np.float64)
    gidx = np.array([pre.gbest_index], dtype=np.int64)
    gpos = np.array(pre.gbest_position, dtype=np.float32)
    struct = _make_struct(
        n, d, rng.stream_id,
        pos, vel, pbp, pbv, vals, l_w, g_w,
        gval, gidx, gpos, rng._keys_addr,
        bounds, float(params.cognitive), float(params.social), sphere,
    )
    improved = fn(ctypes.addressof(struct), block, float(params.inertia), frac)
    matches = (
        improved != NAN_ROW
        and vals.tobytes() == values.tobytes()
        and pos.tobytes() == ref.positions.tobytes()
        and vel.tobytes() == ref.velocities.tobytes()
        and pbv.tobytes() == ref.pbest_values.tobytes()
        and pbp.tobytes() == ref.pbest_positions.tobytes()
        and l_w.tobytes() == ref_weights[0].tobytes()
        and g_w.tobytes() == ref_weights[1].tobytes()
        and float(gval[0]) == ref.gbest_value
        and int(gidx[0]) == int(ref.gbest_index)
        and gpos.tobytes()
        == np.ascontiguousarray(ref.gbest_position, dtype=np.float32).tobytes()
        and (
            ref_vb is None
            or (
                bounds.vel_lo32.tobytes() == ref_vb[0].astype(np.float32).tobytes()
                and bounds.vel_hi32.tobytes()
                == ref_vb[1].astype(np.float32).tobytes()
            )
        )
    )
    return improved if matches else None


#: ``{symbol: (restype, argtypes)}`` of the library's exports.  Arrays pass
#: as raw ``void*`` addresses (callers pass ``arr.ctypes.data`` ints), so
#: the hot calls build no per-call ctypes wrapper objects.
_UNIT_FILL = (
    None,
    [
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_uint64,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ],
)
_SIGNATURES = {
    # plan*, block0, w, frac — the captured iteration.
    "fastpath_step": (
        ctypes.c_int64,
        [ctypes.c_void_p, ctypes.c_uint64, ctypes.c_float, ctypes.c_double],
    ),
    # a*, b*, out*, n — the tensor-core fp16 fragment product.
    "fp16_product": (
        None,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64],
    ),
    # x*, out*, n, d — the Sphere row sums; returns the NaN row count.
    "sphere_rows": (
        ctypes.c_uint64,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64],
    ),
    # block0, stream id, count, keys*, out* — the Philox unit fills; the
    # float32 fill counts values, the float64 fill whole blocks.
    "philox_unit_f32": _UNIT_FILL,
    "philox_unit_f64": _UNIT_FILL,
}

_UNSET = object()
#: The bound, self-tested library: ``_UNSET`` before the first load, then
#: the handle or ``None`` (unavailable) for the life of the process.
_lib: object = _UNSET

#: ``ENV_GATE`` as ``os.environ`` stores it.  A lookup in the underlying
#: dict raises nothing, where ``os.environ.get`` of an unset variable
#: raises and catches ``KeyError`` twice; :func:`load` runs on every
#: fp16 product and every Sphere evaluation.
_GATE_KEY = os.environ.encodekey(ENV_GATE)


def _disabled() -> bool:
    """Whether ``ENV_GATE`` is set (non-empty), as of this call."""
    return bool(os.environ._data.get(_GATE_KEY))


def _build() -> ctypes.CDLL | None:
    try:
        lib = native.build()
        if lib is None:
            return None
        for name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
        return lib if _self_test(lib) else None
    except Exception:
        return None


def load() -> ctypes.CDLL | None:
    """The bound library, or ``None`` when unavailable or disabled.

    The environment gate is read on every call, so setting it mid-process
    takes effect on the next call; the build, bind and self-test run once.
    While they run, ``load()`` returns ``None``: the self-test's own
    :class:`~repro.gpusim.rng.ParallelRNG`\\ s call it, and their reference
    draws must come from the NumPy Philox path, not the library under test.
    """
    global _lib
    if _disabled():
        return None
    if _lib is _UNSET:
        _lib = None  # what a load() from inside the build sees
        _lib = _build()
    return _lib  # type: ignore[return-value]


def available() -> bool:
    return load() is not None


def _sphere_call(
    fn, x: np.ndarray, _view=ctypes.c_char.from_buffer, _addressof=ctypes.addressof
) -> np.ndarray:
    """The C ``sphere_rows`` over *x* (see :func:`sphere_rows`).

    ``addressof(c_char.from_buffer(a))`` is a non-empty, C-contiguous,
    writeable array's data address at under half the cost of
    ``a.ctypes.data``, which matters on a 32-particle swarm's objective.
    Which NaN a C add returns when both operands are NaN is the
    compiler's choice, in this library and in NumPy alike, so rows that
    come back NaN are rescored with einsum itself.
    """
    n, d = x.shape
    out = np.empty(n, dtype=np.float64)
    if fn(_addressof(_view(x)), _addressof(_view(out)), n, d):
        nan_rows = np.isnan(out)
        p = x[nan_rows].astype(np.float64)
        out[nan_rows] = np.einsum("ij,ij->i", p, p)
    return out


def _sphere_self_test(rows) -> bool:
    """*rows* (``x -> values``) vs ``np.einsum`` on the float64 copy.

    Seven rows per width make one 4-row group and three leftover rows, or
    three 2-row pairs and one leftover; widths 1-69, 128, 200 and 257 cover
    every chunk tail.  Magnitudes spread over six decades, so any other
    summation order (four lanes, pairwise, one running sum) changes some
    row's bits.
    """
    from repro.gpusim.rng import ParallelRNG

    rng = ParallelRNG(seed=0x5EED, stream_id=0)
    widest = (
        rng.uniform((7, 257), -1.0, 1.0) * 10.0 ** rng.uniform((7, 257), -3.0, 3.0)
    ).astype(np.float32)
    for d in (*range(1, 70), 128, 200, 257):
        x = np.ascontiguousarray(widest[:, :d])
        p = x.astype(np.float64)
        if rows(x).tobytes() != np.einsum("ij,ij->i", p, p).tobytes():
            return False
    return True


#: The library the sphere check last ran on, and its verdict.
_sphere_verdict: tuple[ctypes.CDLL | None, bool] = (None, False)


def _sphere_ok(lib: ctypes.CDLL) -> bool:
    """Whether *lib*'s ``sphere_rows`` passed :func:`_sphere_self_test`
    (run once per loaded library)."""
    global _sphere_verdict
    checked, ok = _sphere_verdict
    if checked is not lib:
        fn = lib.sphere_rows
        try:
            ok = _sphere_self_test(lambda a: _sphere_call(fn, a))
        except Exception:
            ok = False
        _sphere_verdict = (lib, ok)
    return ok


def sphere_rows(x) -> np.ndarray | None:
    """Sphere values of the positions *x*, or ``None``.

    Bit-identical to ``np.einsum("ij,ij->i", p, p)`` with
    ``p = x.astype(np.float64)``.  ``None`` unless *x* is a non-empty,
    C-contiguous, writeable float32 ``(n, d)`` ndarray, and when the
    library is disabled or unavailable or the kernel failed its
    known-answer check on this NumPy build (checked once per loaded
    library).
    """
    if not (
        isinstance(x, np.ndarray)
        and x.dtype == np.float32
        and x.ndim == 2
        and x.size
        and x.flags.c_contiguous
        and x.flags.writeable
    ):
        return None
    lib = load()
    if lib is None or not _sphere_ok(lib):
        return None
    return _sphere_call(lib.sphere_rows, x)


class NativePlan:
    """The per-run native binding: one struct, one hot call per iteration.

    Built by :func:`build_native` after the first verified Python replay.
    The struct holds raw addresses of the run's stable buffers (swarm
    matrices, workspace weight buffers, RNG key schedule, base velocity
    bounds) plus small plan-owned buffers for the scalar gbest fields, the
    per-call float32 velocity bounds and the ``(n,)`` fitness ``values``;
    :meth:`step` syncs the scalars from/to the ``SwarmState`` around the C
    call, so host-side observers (history recording, multi-GPU best
    exchange) keep seeing plain Python floats.

    With *sphere* set the C step scores the Sphere objective into
    ``values`` itself; otherwise the caller copies each iteration's
    fitness there before :meth:`step`.  The plan's slots keep every
    buffer it handed the struct alive for as long as the plan.

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
        "sphere",
        "values",
        "l_weights",
        "g_weights",
        "gval",
        "gidx",
        "gpos",
        "bounds",
        "_fn",
        "_struct",
        "_addr",
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
        vel_bounds: tuple[np.ndarray, np.ndarray] | None,
        sphere: bool,
    ) -> None:
        n, d = state.positions.shape
        self.state = state
        self.rng = rng
        self.n, self.d = n, d
        self.blocks = 2 * ((n * d + 3) // 4)
        self.sphere = sphere
        self.values = np.empty(n, dtype=np.float64)
        self.l_weights = l_weights
        self.g_weights = g_weights
        self.gval = np.array([state.gbest_value], dtype=np.float64)
        self.gidx = np.array([state.gbest_index], dtype=np.int64)
        self.gpos = np.ascontiguousarray(state.gbest_position, dtype=np.float32).copy()
        self.bounds = _Bounds(d, pos_bounds, vel_bounds)
        self._fn = lib.fastpath_step
        self._struct = _make_struct(
            n, d, rng.stream_id,
            state.positions, state.velocities,
            state.pbest_positions, state.pbest_values, self.values,
            l_weights, g_weights,
            self.gval, self.gidx, self.gpos, rng._keys_addr,
            self.bounds, float(params.cognitive), float(params.social), sphere,
        )
        self._addr = ctypes.addressof(self._struct)

    def step(self, w: float, frac: float) -> int:
        """One full iteration body in C; returns the improved-pbest count.

        The fitness is ``values``: scored in the call for a Sphere plan,
        else copied there by the caller (float64, checked once during the
        verification iteration).  *w* is the scheduled inertia; *frac* the
        velocity clamp fraction (``Engine._velocity_fraction``), ignored
        when the run does not clamp.  Returns :data:`NAN_ROW`, with the
        run state and the Philox cursor untouched, when the in-step Sphere
        scored a NaN row.
        """
        state, rng = self.state, self.rng
        # Sync the scalar gbest fields in (they are plain Python attributes
        # that outside code may have replaced since the last step).
        self.gval[0] = state.gbest_value
        self.gidx[0] = state.gbest_index
        if state.gbest_position is not self.gpos:
            np.copyto(self.gpos, state.gbest_position)
            state.gbest_position = self.gpos
        improved = self._fn(self._addr, rng._block, w, frac)
        if improved != NAN_ROW:
            rng._block += self.blocks
            state.gbest_value = float(self.gval[0])
            state.gbest_index = int(self.gidx[0])
        return improved


def _scores_sphere(lib: ctypes.CDLL, problem) -> bool:
    """Whether the C step may score *problem* itself: its evaluator is a
    :class:`~repro.core.schema.BuiltinEvaluation` over exactly
    :class:`~repro.functions.sphere.Sphere` (no subclass, no transform
    wrapped around it), and *lib*'s ``sphere_rows`` passed its
    known-answer check.  The C-contiguous float32 positions it reads are
    checked when the plan is built."""
    from repro.core.schema import BuiltinEvaluation
    from repro.functions.sphere import Sphere

    evaluator = problem.evaluator
    return (
        type(evaluator) is BuiltinEvaluation
        and type(evaluator.function) is Sphere
        and _sphere_ok(lib)
    )


def build_native(engine, graph, problem, params, state, rng):
    """Build the native tier for one run from its captured *graph*.

    Returns ``(step, verify)`` — ``step()`` runs one full iteration and
    ``verify(run_replay)`` is the :func:`verify_step` promotion gate — or a
    reason string naming why the run stays on the Python replay tier.

    ``REPRO_NO_NATIVE_FASTPATH`` refuses first (``disabled-by-env``), then
    the engine hook ``engine._graph_build_native()`` is asked for its own
    refusal.  The refusals every engine shares follow: the C step
    reads one social attractor row (global topology only), needs the
    compiled library, and consumes exactly the two ``ceil(n*d/4)``-block
    weight draws.  A Sphere run (:func:`_scores_sphere`) is then one C
    call per iteration, objective included; any other objective is the
    problem's evaluator, as on every tier, copied into the plan before
    the call.  A NaN row the C Sphere finds leaves the run untouched, and
    the evaluator then raises the :class:`~repro.errors.EvaluationError`
    every tier raises for it.  Every engine's
    iteration is then charged the same way: ``graph.charge`` replays the
    captured clock charges and allocator-counter delta, with the engine's
    ``_charge_pbest_copy`` for the live improved count in the dynamic slot.
    """
    if _disabled():
        return "disabled-by-env"
    refusal = engine._graph_build_native()
    if refusal is not None:
        return refusal
    if params.topology != "global":
        return f"native-unsupported-topology:{params.topology}"
    lib = load()
    if lib is None:
        return "native-unavailable"
    n, d = state.n_particles, state.dim
    if graph.rng_blocks != 2 * ((n * d + 3) // 4):
        return "native-rng-shape-mismatch"
    pos_bounds = None
    if params.clip_positions:
        pos_bounds = (problem.lower_bounds, problem.upper_bounds)
    plan = NativePlan(
        lib,
        state,
        rng,
        *engine._weight_buffers(n, d, np.float32),
        params,
        pos_bounds,
        problem.velocity_bounds(params.velocity_clamp),
        _scores_sphere(lib, problem),
    )
    eval_fn = problem.evaluator.evaluate
    values = None if plan.sphere else plan.values
    clock = engine.clock
    charge = graph.charge
    charge_pbest_copy = engine._charge_pbest_copy

    def step() -> None:
        if values is not None:
            np.copyto(values, eval_fn(state.positions))
        p = engine._scheduled_params(params)
        improved = plan.step(float(p.inertia), engine._velocity_fraction(p))
        if improved == NAN_ROW:
            eval_fn(state.positions)  # raises EvaluationError on the NaN row
            raise GraphReplayError(
                "the native Sphere scored a NaN row the evaluator accepted"
            )
        charge(clock, lambda: charge_pbest_copy(improved, d))

    def verify(run_replay) -> bool:
        return verify_step(plan, run_replay, eval_fn, engine, problem, params)

    return step, verify


def verify_step(plan: NativePlan, run_replay, eval_fn, engine, problem, params) -> bool:
    """Promotion gate: replay the real iteration, shadow-run the C step.

    Snapshots the pre-iteration state, lets the *trusted* Python replay
    mutate the real run, then executes the C step on the shadow copies
    (re-evaluating the objective on the pre-iteration positions — the
    evaluators are pure by contract) and compares every output buffer
    bitwise, the velocity bounds the C step derived from ``frac`` included.
    A Sphere plan's shadow step scores the objective itself, and its
    values are compared with the evaluator's, so the gate also proves the
    in-step objective once per run.
    Returns ``True`` only on an exact match; the real run's trajectory is
    identical either way.  Exceptions from the replay propagate (they are
    real-run failures); exceptions from the shadow path just return
    ``False``.
    """
    state, rng = plan.state, plan.rng
    pre = state.copy()
    pre_block = rng.position
    p = engine._scheduled_params(params)
    frac = engine._velocity_fraction(p)
    vb = engine._current_velocity_bounds(problem, p)

    run_replay()

    try:
        if rng.position - pre_block != plan.blocks:
            return False
        values = eval_fn(pre.positions)
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.flags.c_contiguous
            and values.shape == (plan.n,)
        ):
            return False
        return _shadow_step(
            plan._fn, pre, rng, pre_block, plan.bounds, p, values, frac,
            state, (plan.l_weights, plan.g_weights), vb, plan.sphere,
        ) is not None
    except Exception:
        return False
