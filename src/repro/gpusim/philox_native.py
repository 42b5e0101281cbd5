"""Optional native (C) backend for the Philox hot path.

The per-iteration weight regeneration is the single largest host cost of a
steady-state FastPSO run: two ``n x d`` uniform draws per iteration, each a
full Philox4x32-10 pass.  The NumPy uint64-lane pipeline in
:mod:`repro.gpusim.rng` already avoids allocation, but each round is ~10
full-array ufunc sweeps; ``_philox.c`` keeps each counter block in its own
64-bit SIMD lane, 8 (AVX-512) or 4 (AVX2) blocks per vector, and runs one
round body for both fills.  ``philox_unit_f32`` is the one float32
unit-fill loop in C: every ``ParallelRNG.uniform(out=float32)`` draw calls
it, and the native iteration step (``_fastpath.c``, which includes the
file) draws its weights through it too.  ``philox_unit_f64`` serves every
other unit draw (swarm initialisation, ranged draws, the float32 staging
draw of a half-precision weight draw).

The compile/cache/bind machinery lives in :mod:`repro.gpusim.native`
(shared with ``_fastpath.c``); this module contributes the source file, the
ctypes signatures and the known-answer self-test.  Everything is
best-effort:

* set ``REPRO_NO_NATIVE_RNG=1`` to disable it (checked on every call);
* no compiler, a failed compile, or a failed known-answer self-test all
  silently fall back to the NumPy path (the two paths are bit-identical, so
  which one runs is invisible except in wall-clock time).

:func:`load` returns the bound library handle or ``None``; the result is
cached for the life of the process (modulo the environment gate).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.gpusim import native

__all__ = ["load", "available", "unit_f32", "unit_f64"]

_SOURCE = Path(__file__).with_name("_philox.c")

#: Compat aliases (the loader now owns the cache; see repro.gpusim.native).
_UNSET = native._UNSET
_lib: object = _UNSET

# Raw addresses instead of typed pointers: callers pass ``arr.ctypes.data``
# ints, skipping the per-call ``data_as`` wrapper objects — these are the
# hottest ctypes calls in the per-iteration weight draw.
_UNIT_ARGTYPES = [
    ctypes.c_uint64,
    ctypes.c_uint64,
    ctypes.c_uint64,
    ctypes.c_void_p,
    ctypes.c_void_p,
]


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


def _self_test(lib: ctypes.CDLL) -> bool:
    """Known-answer check against the reference bijection before first use.

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


_MODULE = native.NativeModule(
    "philox",
    [_SOURCE],
    env_gate="REPRO_NO_NATIVE_RNG",
    fn_specs={
        "philox_unit_f32": (None, _UNIT_ARGTYPES),
        "philox_unit_f64": (None, _UNIT_ARGTYPES),
    },
    self_test=_self_test,
)


def load() -> ctypes.CDLL | None:
    """The bound native library, or ``None`` when unavailable/disabled."""
    global _lib
    lib = _MODULE.load()
    _lib = lib
    return lib


def available() -> bool:
    return load() is not None


def unit_f32(
    lib: ctypes.CDLL,
    block0: int,
    stream_id: int,
    n_blocks: int,
    keys: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill *out* (flat float32, ``4 * n_blocks`` long) with unit uniforms."""
    lib.philox_unit_f32(
        block0,
        stream_id,
        4 * n_blocks,
        keys.ctypes.data,
        out.ctypes.data,
    )


def unit_f64(
    lib: ctypes.CDLL,
    block0: int,
    stream_id: int,
    n_blocks: int,
    keys: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill *out* (flat float64, ``4 * n_blocks`` long) with unit uniforms."""
    lib.philox_unit_f64(
        block0,
        stream_id,
        n_blocks,
        keys.ctypes.data,
        out.ctypes.data,
    )
