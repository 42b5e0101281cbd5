"""Counter-based parallel random number generation (Philox4x32-10).

The paper's technique (ii) initialises the swarm and regenerates the two
``n x d`` weight matrices *every iteration* with fast GPU RNG.  cuRAND's
default generator family and Thrust's parallel RNG are counter-based
(Philox), which is what makes them embarrassingly parallel: output block
``i`` is a pure function ``philox(counter=i, key=seed)`` with no sequential
state, so any range of the stream can be produced by any thread
independently.

This module implements Philox4x32-10 exactly (validated against the
Random123 known-answer vectors) with NumPy vector operations standing in for
the per-thread lanes.  :class:`ParallelRNG` layers a consumable stream on
top: each call advances a 64-bit block counter, and distinct ``stream_id``
values (e.g. one per sub-swarm on multi-GPU) yield provably disjoint
counter spaces.

Three implementations of the bijection coexist, all with identical output
words:

* :func:`philox4x32` — the reference path, shaped like the Random123
  specification (uint32 lanes, per-round key bumps).  Used for validation
  and for callers that bring their own counters/keys.
* the C fills ``philox_unit_f32``/``philox_unit_f64`` (``_philox.c``, in
  the native library :func:`repro.gpusim.fastpath.load` returns), which
  :meth:`ParallelRNG.uniform` calls whenever that library is loaded.
* a uint64 in-place NumPy path, which :meth:`ParallelRNG.random_uint32`
  always uses and :meth:`ParallelRNG.uniform` uses when the library is
  unavailable or ``REPRO_NO_NATIVE_FASTPATH=1`` is set: all round
  arithmetic runs ``out=``-style in a handful of preallocated uint64
  buffers and the key schedule is precomputed once per generator, so the
  steady-state per-iteration cost is pure ufunc work with zero Python-side
  allocation.  This is the host-side analogue of the paper's "no per-draw
  state traffic" argument.

The contrast kernel for the baselines — stateful per-thread cuRAND XORWOW
with a 48-byte state block loaded and stored around every draw — is modelled
in the baseline engines' kernel specs; see
:mod:`repro.engines.gpu_particle`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.gpusim import fastpath as _fastpath

__all__ = ["philox4x32", "ParallelRNG", "PHILOX_ROUNDS"]

PHILOX_ROUNDS = 10

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint32(0x9E3779B9)  # golden-ratio key bump
_W1 = np.uint32(0xBB67AE85)  # sqrt(3)-1 key bump
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Open-interval mapping constant: ``(word + 0.5) * 2**-32``.
_INV_2_32 = 2.0**-32


def _mulhilo(m: np.uint64, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """32x32 -> 64-bit multiply, returned as (high, low) 32-bit halves."""
    prod = m * a.astype(np.uint64)
    hi = (prod >> np.uint64(32)).astype(np.uint32)
    lo = (prod & _MASK32).astype(np.uint32)
    return hi, lo


def _key_schedule(k0: int, k1: int, rounds: int) -> list[tuple[int, int]]:
    """Per-round (k0, k1) pairs, bumped by the Weyl constants mod 2**32."""
    w0, w1 = int(_W0), int(_W1)
    out = []
    for r in range(rounds):
        out.append(((k0 + r * w0) & 0xFFFFFFFF, (k1 + r * w1) & 0xFFFFFFFF))
    return out


def philox4x32(
    counter: np.ndarray, key: np.ndarray, rounds: int = PHILOX_ROUNDS
) -> np.ndarray:
    """Apply the Philox4x32 bijection to a batch of counter blocks.

    Parameters
    ----------
    counter:
        ``(n, 4)`` uint32 array of counter blocks.  Never mutated.
    key:
        ``(2,)`` or ``(n, 2)`` uint32 key(s).
    rounds:
        Number of S-P rounds; 10 is the standard (crush-resistant) choice.

    Returns
    -------
    ``(n, 4)`` uint32 array of random blocks.
    """
    ctr = np.asarray(counter, dtype=np.uint32)
    if ctr.ndim != 2 or ctr.shape[1] != 4:
        raise ValueError(f"counter must have shape (n, 4), got {ctr.shape}")
    k = np.asarray(key, dtype=np.uint32)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")

    c0, c1, c2, c3 = ctr[:, 0], ctr[:, 1], ctr[:, 2], ctr[:, 3]
    if k.shape == (2,):
        # Scalar key schedule: no per-lane key splat on this (common) path.
        for k0, k1 in _key_schedule(int(k[0]), int(k[1]), rounds):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = (
                hi1 ^ c1 ^ np.uint32(k0),
                lo1,
                hi0 ^ c3 ^ np.uint32(k1),
                lo0,
            )
    elif k.ndim == 2 and k.shape == (ctr.shape[0], 2):
        k0, k1 = k[:, 0].copy(), k[:, 1].copy()
        for r in range(rounds):
            if r > 0:
                k0 = k0 + _W0  # uint32 wraps naturally
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    else:
        raise ValueError(f"key must have shape (2,) or (n, 2), got {k.shape}")

    return np.stack([c0, c1, c2, c3], axis=1)


class ParallelRNG:
    """A consumable uniform stream over the Philox4x32-10 bijection.

    Each generator is identified by ``(seed, stream_id)``; two generators
    with different stream ids never produce overlapping counter blocks, so
    per-device or per-sub-swarm streams can be split without coordination —
    the property multi-GPU FastPSO relies on.

    The generator owns a small set of reusable uint64/float64 scratch
    buffers sized to the last draw; steady-state PSO iterations (same
    ``n x d`` every time) therefore run the whole Philox pipeline without
    allocating.  The buffers are an implementation detail: outputs are
    always freshly allocated unless the caller passes ``out=``.
    """

    __slots__ = (
        "seed",
        "stream_id",
        "_block",
        "_keys",
        "_flat_keys",
        "_keys_addr",
        "_native",
        "_sid_lo",
        "_sid_hi",
        "_n_blocks",
        "_lanes",
        "_base",
        "_unit",
    )

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        if not 0 <= int(seed) < 2**64:
            raise InvalidParameterError("seed must fit in 64 bits")
        if not 0 <= int(stream_id) < 2**64:
            raise InvalidParameterError("stream_id must fit in 64 bits")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._block = 0  # next unconsumed 128-bit counter block
        # Key schedule is a pure function of the seed: compute it once.
        schedule = _key_schedule(
            self.seed & 0xFFFFFFFF,
            (self.seed >> 32) & 0xFFFFFFFF,
            PHILOX_ROUNDS,
        )
        self._keys = [
            (np.uint64(k0), np.uint64(k1)) for k0, k1 in schedule
        ]
        # Same schedule, flattened for the (optional) native C kernel.
        self._flat_keys = np.array(
            [half for pair in schedule for half in pair], dtype=np.uint32
        )
        self._native = _fastpath.load()
        # Raw address of the (immutable) flat key schedule: the native
        # kernels take void* addresses, so the hot draw path passes this
        # precomputed int instead of building ctypes wrappers per call.
        self._keys_addr = self._flat_keys.ctypes.data
        self._sid_lo = np.uint64(self.stream_id & 0xFFFFFFFF)
        self._sid_hi = np.uint64((self.stream_id >> 32) & 0xFFFFFFFF)
        self._n_blocks = 0  # scratch capacity, in counter blocks
        self._lanes: list[np.ndarray] = []
        self._base: np.ndarray | None = None
        self._unit: np.ndarray | None = None

    @property
    def position(self) -> int:
        """Number of 4-word blocks consumed so far (for tests/checkpoints)."""
        return self._block

    def seek(self, position: int) -> None:
        """Jump the stream to an absolute block *position*.

        Philox is counter-based — output block ``i`` is a pure function of
        ``(seed, stream_id, i)`` — so seeking is O(1) and exact.  This is
        what makes checkpoint/resume bit-identical: restoring ``(seed,
        stream_id, position)`` reproduces the remaining stream verbatim.
        """
        if not 0 <= int(position) < 2**64:
            raise InvalidParameterError("position must fit in 64 bits")
        self._block = int(position)

    def _key(self) -> np.ndarray:
        return np.array(
            [self.seed & 0xFFFFFFFF, (self.seed >> 32) & 0xFFFFFFFF],
            dtype=np.uint32,
        )

    def _counters(self, n_blocks: int) -> np.ndarray:
        idx = np.arange(self._block, self._block + n_blocks, dtype=np.uint64)
        ctr = np.empty((n_blocks, 4), dtype=np.uint32)
        ctr[:, 0] = (idx & _MASK32).astype(np.uint32)
        ctr[:, 1] = (idx >> np.uint64(32)).astype(np.uint32)
        ctr[:, 2] = np.uint32(self.stream_id & 0xFFFFFFFF)
        ctr[:, 3] = np.uint32((self.stream_id >> 32) & 0xFFFFFFFF)
        return ctr

    # -- fast path ----------------------------------------------------------
    def _ensure_scratch(self, n_blocks: int) -> None:
        """(Re)size the reusable uint64 lane + float64 unit buffers."""
        if n_blocks == self._n_blocks:
            return
        self._lanes = [np.empty(n_blocks, dtype=np.uint64) for _ in range(6)]
        self._base = np.arange(n_blocks, dtype=np.uint64)
        self._unit = np.empty((n_blocks, 4), dtype=np.float64)
        self._n_blocks = n_blocks

    def _philox_blocks(self, n_blocks: int) -> tuple[np.ndarray, ...]:
        """Run Philox4x32-10 over the next *n_blocks* counters, in place.

        Returns the four uint64 lane arrays (values < 2**32) holding the
        output words.  The lanes alias this generator's scratch buffers and
        are only valid until the next draw; callers must copy/cast out.
        Does NOT advance the block counter — callers do, after consuming.
        """
        self._ensure_scratch(n_blocks)
        c0, c1, c2, c3, t0, t1 = self._lanes
        # Counter layout matches :meth:`_counters`: lane0/1 are the low/high
        # halves of the 64-bit block index, lane2/3 the stream id halves.
        np.add(self._base, np.uint64(self._block & 0xFFFFFFFFFFFFFFFF), out=t0)
        np.bitwise_and(t0, _MASK32, out=c0)
        np.right_shift(t0, _SHIFT32, out=c1)
        c2.fill(self._sid_lo)
        c3.fill(self._sid_hi)
        for k0, k1 in self._keys:
            # hi/lo of the two 32x32 multiplies, all in uint64 lanes.
            np.multiply(c0, _M0, out=t0)
            np.multiply(c2, _M1, out=t1)
            np.right_shift(t0, _SHIFT32, out=c0)  # c0 <- hi0 (old c0 dead)
            np.bitwise_and(t0, _MASK32, out=t0)  # t0 <- lo0
            np.right_shift(t1, _SHIFT32, out=c2)  # c2 <- hi1 (old c2 dead)
            np.bitwise_and(t1, _MASK32, out=t1)  # t1 <- lo1
            np.bitwise_xor(c2, c1, out=c2)
            np.bitwise_xor(c2, k0, out=c2)  # c2 <- new c0
            np.bitwise_xor(c0, c3, out=c0)
            np.bitwise_xor(c0, k1, out=c0)  # c0 <- new c2
            # new lanes: (c0, c1, c2, c3) = (c2, t1, c0, t0)
            c0, c1, c2, c3, t0, t1 = c2, t1, c0, t0, c1, c3
        return c0, c1, c2, c3

    def _draw_unit(self, n: int) -> np.ndarray:
        """Next *n* uniforms on (0, 1) as a flat float64 view.

        The view aliases the reusable unit buffer — consume (copy/cast)
        before the next draw.  Word order matches :meth:`random_uint32`.
        """
        n_blocks = -(-n // 4)
        if self._native is not None:
            # C fill (the float32 fill's SIMD rounds): same words, same
            # (word + 0.5) * 2**-32 double mapping, written straight into
            # the reusable unit buffer.
            self._ensure_scratch(n_blocks)
            unit = self._unit
            self._native.philox_unit_f64(
                self._block,
                self.stream_id,
                n_blocks,
                self._keys_addr,
                unit.ctypes.data,
            )
            self._block += n_blocks
            return unit.reshape(-1)[:n]
        c0, c1, c2, c3 = self._philox_blocks(n_blocks)
        unit = self._unit
        unit[:, 0] = c0
        unit[:, 1] = c1
        unit[:, 2] = c2
        unit[:, 3] = c3
        flat = unit.reshape(-1)
        np.add(flat, 0.5, out=flat)
        np.multiply(flat, _INV_2_32, out=flat)
        self._block += n_blocks
        return flat[:n]

    # -- public draws --------------------------------------------------------
    def random_uint32(self, n: int) -> np.ndarray:
        """Next *n* raw 32-bit words from the stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.uint32)
        n_blocks = -(-n // 4)
        c0, c1, c2, c3 = self._philox_blocks(n_blocks)
        words = np.empty((n_blocks, 4), dtype=np.uint32)
        words[:, 0] = c0
        words[:, 1] = c1
        words[:, 2] = c2
        words[:, 3] = c3
        self._block += n_blocks
        return words.reshape(-1)[:n]

    def uniform(
        self,
        shape: int | tuple[int, ...],
        low: float = 0.0,
        high: float = 1.0,
        dtype: np.dtype | type = np.float32,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Uniform variates on ``[low, high)`` with the requested shape.

        Uses the open-ended mapping ``(word + 0.5) * 2**-32`` so 0 and 1 are
        never produced exactly — matching cuRAND's ``curand_uniform`` contract
        that the weights in Eq. (1) are strictly positive.

        When *out* is given the variates are written into it in place (its
        dtype wins over *dtype*); this is the zero-allocation path the
        engines' workspace arena uses for the per-iteration weight matrices.
        The stream consumes exactly the same counter blocks either way.
        """
        if not isinstance(shape, (tuple, list)):
            shape = (int(shape),)
        n = 1
        for extent in shape:
            n *= int(extent)
        if n < 0:
            raise ValueError("shape must be non-negative")
        # The unit range [0, 1) — the per-iteration weight draws — is
        # trivially valid; skip the finiteness checks on the hot path.
        if (low != 0.0 or high != 1.0) and (
            not (np.isfinite(low) and np.isfinite(high)) or high < low
        ):
            raise InvalidParameterError(
                f"invalid uniform range [{low}, {high})"
            )
        if out is not None and out.shape != tuple(shape):
            raise ValueError(
                f"out has shape {out.shape}, expected {tuple(shape)}"
            )
        if n == 0:
            return out if out is not None else np.empty(shape, dtype=dtype)
        if (
            self._native is not None
            and out is not None
            and low == 0.0
            and high == 1.0
            and out.dtype == np.float32
            and out.flags["C_CONTIGUOUS"]
        ):
            # Hottest call shape (the per-iteration weight matrices): unit
            # float32 straight into the caller's buffer, no float64 staging.
            # The C kernel rounds each double once to float32 — exactly what
            # ``copyto(float32_out, float64_unit)`` does below — and, like
            # the NumPy path, consumes ceil(n / 4) blocks (a partial last
            # block fills the tail), so values and stream consumption are
            # bit-identical.
            self._native.philox_unit_f32(
                self._block,
                self.stream_id,
                n,
                self._keys_addr,
                out.ctypes.data,
            )
            self._block += -(-n // 4)
            return out
        unit = self._draw_unit(n)
        if low != 0.0 or high != 1.0:
            # Same expression as ``low + unit * (high - low)``, evaluated in
            # place on the float64 scratch (term order is bit-preserving).
            np.multiply(unit, high - low, out=unit)
            np.add(unit, low, out=unit)
        if out is not None:
            np.copyto(out, unit.reshape(shape))
            return out
        return unit.reshape(shape).astype(dtype)

    def normal(
        self,
        shape: int | tuple[int, ...],
        mean: float = 0.0,
        std: float = 1.0,
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """Gaussian variates via the Box-Muller transform (cuRAND's method)."""
        if np.isscalar(shape):
            shape = (int(shape),)
        n = int(np.prod(shape, dtype=np.int64))
        if std < 0:
            raise InvalidParameterError("std must be non-negative")
        # Box-Muller consumes pairs; draw an even count.
        m = n + (n & 1)
        words = self.random_uint32(2 * m).astype(np.float64)
        u1 = (words[:m] + 0.5) * 2.0**-32
        u2 = (words[m:] + 0.5) * 2.0**-32
        r = np.sqrt(-2.0 * np.log(u1))
        z = r * np.cos(2.0 * np.pi * u2)
        out = mean + std * z[:n]
        return out.reshape(shape).astype(dtype)

    def spawn(self, stream_id: int) -> "ParallelRNG":
        """Create an independent generator sharing this seed."""
        return ParallelRNG(self.seed, stream_id)
