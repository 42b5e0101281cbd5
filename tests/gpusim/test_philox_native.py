"""Native (compiled C) Philox fills vs the NumPy reference implementation.

The fills ``philox_unit_f32``/``philox_unit_f64`` live in ``_philox.c``,
which ``_fastpath.c`` includes, so they come with the one native library
:func:`repro.gpusim.fastpath.load` returns.  When a C compiler is present
it is compiled once per process; otherwise — or with
``REPRO_NO_NATIVE_FASTPATH=1`` — ``ParallelRNG`` runs the NumPy path.
Either way the bits must be identical, which these tests pin directly
(native vs ``philox4x32``) and indirectly (a ``ParallelRNG`` with the
native path disabled draws the same streams as one with it enabled).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import fastpath
from repro.gpusim.fastpath import ENV_GATE
from repro.gpusim.rng import ParallelRNG


@pytest.fixture(autouse=True)
def _clear_env_gate(monkeypatch):
    """Each test controls the gate itself, so the fills are also checked
    in a process that runs with ``REPRO_NO_NATIVE_FASTPATH=1``."""
    monkeypatch.delenv(ENV_GATE, raising=False)


def _available_ungated() -> bool:
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(ENV_GATE, raising=False)
        return fastpath.available()


needs_native = pytest.mark.skipif(
    not _available_ungated(), reason="no C compiler available"
)


@needs_native
class TestNativeBitParity:
    def test_unit_f64_matches_reference(self):
        from repro.gpusim.rng import philox4x32

        seed, sid, block0, n_blocks = 0x123456789ABCDEF0, 7, 5, 64
        rng = ParallelRNG(seed=seed, stream_id=sid)
        lib = fastpath.load()
        out = np.empty(4 * n_blocks, dtype=np.float64)
        lib.philox_unit_f64(block0, sid, n_blocks, rng._keys_addr, out.ctypes.data)

        # Reference: raw counter words mapped with the same (w + 0.5) * 2^-32.
        idx = np.arange(block0, block0 + n_blocks, dtype=np.uint64)
        ctr = np.empty((n_blocks, 4), dtype=np.uint32)
        ctr[:, 0] = (idx & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        ctr[:, 1] = (idx >> np.uint64(32)).astype(np.uint32)
        ctr[:, 2] = np.uint32(sid)
        ctr[:, 3] = 0
        key = np.array(
            [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF], dtype=np.uint32
        )
        words = philox4x32(ctr, key)
        expected = (words.reshape(-1).astype(np.float64) + 0.5) * 2.0**-32
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("block0", [0, 7, 2**32 - 37, 2**40 + 5])
    def test_fills_match_reference_across_every_loop(self, block0):
        # Counts run to 2 full groups + 1 one-vector group + 3 words at the
        # AVX-512 sizes (32 blocks per group, 8 per vector), so every SIMD
        # group count, one-vector count, scalar block count and partial
        # tail of both ISAs' fills is hit, from blocks across the 2^32
        # counter carry.  A fill of `count` values is the prefix of the
        # longest one, so one reference serves the whole sweep.
        seed, sid = 0x0DDB_A11C_AFE5_EED5, 0xA5A5_0001_0000_000B
        rng = ParallelRNG(seed=seed, stream_id=sid)
        lib = fastpath.load()
        max_count = 4 * (2 * 32 + 8) + 3
        want = fastpath._reference_unit(
            seed, sid, block0, -(-max_count // 4)
        )
        want32 = want.astype(np.float32)
        for count in range(1, max_count + 1):
            got32 = np.empty(count, dtype=np.float32)
            lib.philox_unit_f32(
                block0, sid, count, rng._flat_keys.ctypes.data, got32.ctypes.data
            )
            assert got32.tobytes() == want32[:count].tobytes(), count
        for n_blocks in range(1, -(-max_count // 4) + 1):
            got64 = np.empty(4 * n_blocks, dtype=np.float64)
            lib.philox_unit_f64(
                block0, sid, n_blocks, rng._keys_addr, got64.ctypes.data
            )
            assert got64.tobytes() == want[: 4 * n_blocks].tobytes(), n_blocks

    def test_unit_f32_is_f64_rounded_once(self):
        rng = ParallelRNG(seed=99, stream_id=3)
        lib = fastpath.load()
        n_blocks = 32
        f32 = np.empty(4 * n_blocks, dtype=np.float32)
        f64 = np.empty(4 * n_blocks, dtype=np.float64)
        lib.philox_unit_f32(0, 3, 4 * n_blocks, rng._keys_addr, f32.ctypes.data)
        lib.philox_unit_f64(0, 3, n_blocks, rng._keys_addr, f64.ctypes.data)
        np.testing.assert_array_equal(f32, f64.astype(np.float32))


class TestStreamEquivalence:
    """Draws are identical whether or not the native path is active."""

    def _fallback_rng(self, *args, **kwargs):
        rng = ParallelRNG(*args, **kwargs)
        rng._native = None  # force the NumPy path on this instance
        return rng

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16])
    def test_uniform_out_matches_fallback(self, dtype):
        native = ParallelRNG(seed=1234, stream_id=2)
        fallback = self._fallback_rng(seed=1234, stream_id=2)
        a = np.empty((50, 8), dtype=dtype)
        b = np.empty((50, 8), dtype=dtype)
        native.uniform((50, 8), 0.0, 1.0, out=a)
        fallback.uniform((50, 8), 0.0, 1.0, out=b)
        np.testing.assert_array_equal(a, b)
        assert native.position == fallback.position

    def test_ranged_and_odd_sizes_match_fallback(self):
        native = ParallelRNG(seed=77)
        fallback = self._fallback_rng(seed=77)
        np.testing.assert_array_equal(
            native.uniform(13, -2.5, 4.0), fallback.uniform(13, -2.5, 4.0)
        )
        np.testing.assert_array_equal(
            native.random_uint32(9), fallback.random_uint32(9)
        )
        assert native.position == fallback.position

    @pytest.mark.parametrize(
        "stream_id, start", [(3, 0), (0xA5A5_0001_0000_0003, 2**32 - 37)]
    )
    def test_odd_float32_draws_match_numpy_path(self, monkeypatch, stream_id, start):
        # Odd element counts end in a partial Philox block; each draw must
        # still consume ceil(n / 4) blocks.  Sizes span the scalar loop and
        # whole AVX-512/AVX2 groups, from odd block offsets across the
        # 2^32 counter carry.
        sizes = [1, 3, 5, 13, 7 * 9, 267, 33 * 31, 1023]
        native = ParallelRNG(seed=0xDEADBEEF, stream_id=stream_id)
        monkeypatch.setenv(ENV_GATE, "1")
        numpy_path = ParallelRNG(seed=0xDEADBEEF, stream_id=stream_id)
        assert numpy_path._native is None
        native.seek(start)
        numpy_path.seek(start)
        for n in sizes:
            a = np.empty(n, dtype=np.float32)
            b = np.empty(n, dtype=np.float32)
            native.uniform(n, 0.0, 1.0, out=a)
            numpy_path.uniform(n, 0.0, 1.0, out=b)
            assert a.tobytes() == b.tobytes(), n
            assert native.position == numpy_path.position
        assert native.position == start + sum(-(-n // 4) for n in sizes)

    def test_seek_replays_identically(self):
        rng = ParallelRNG(seed=5, stream_id=1)
        first = rng.uniform(64, 0.0, 1.0)
        pos = rng.position
        rng.uniform(32, 0.0, 1.0)
        rng.seek(0)
        np.testing.assert_array_equal(rng.uniform(64, 0.0, 1.0), first)
        assert rng.position == pos

    @needs_native
    def test_env_gate_disables_native(self, monkeypatch):
        # The fast-path gate turns the fills off for generators built after
        # it is set; their float32 and float64 draws keep every bit.
        native = ParallelRNG(seed=0xFEED, stream_id=5)
        assert native._native is not None
        monkeypatch.setenv(ENV_GATE, "1")
        numpy_path = ParallelRNG(seed=0xFEED, stream_id=5)
        assert numpy_path._native is None
        assert fastpath.load() is None
        for dtype in (np.float32, np.float64):
            a = np.empty((37, 11), dtype=dtype)
            b = np.empty((37, 11), dtype=dtype)
            native.uniform(a.shape, 0.0, 1.0, out=a)
            numpy_path.uniform(b.shape, 0.0, 1.0, out=b)
            assert a.tobytes() == b.tobytes(), dtype
        a = native.uniform(101, -3.0, 2.0, dtype=np.float64)
        b = numpy_path.uniform(101, -3.0, 2.0, dtype=np.float64)
        assert a.tobytes() == b.tobytes()
        assert native.position == numpy_path.position

    def test_generators_draw_through_the_fastpath_library(self):
        # One native library: a generator's fills are the fast path's.
        assert ParallelRNG(seed=3)._native is fastpath.load()
