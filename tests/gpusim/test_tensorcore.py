"""Tensor-core model: fp16 rounding semantics and derived specs."""

import os

import numpy as np
import pytest

from repro.errors import InvalidLaunchError
from repro.gpusim import fastpath, native
from repro.gpusim.device import laptop_gpu, tesla_v100
from repro.gpusim.kernel import KernelSpec
from repro.gpusim.tensorcore import (
    fragment_multiply_add,
    supports_tensor_cores,
    tensor_core_spec,
    to_half,
)


class TestToHalf:
    def test_rounds_to_fp16_grid(self):
        x = np.array([1.0 + 2**-12], dtype=np.float32)
        assert to_half(x)[0] == np.float16(1.0)  # dropped below fp16 ulp

    def test_exact_values_preserved(self):
        x = np.array([0.5, 1.0, 2.0, -3.5], dtype=np.float32)
        np.testing.assert_array_equal(to_half(x).astype(np.float32), x)

    def test_overflow_saturates_to_inf(self):
        assert np.isinf(to_half(np.array([1e6], dtype=np.float32))[0])


class TestFragmentMultiplyAdd:
    def test_matches_fp16_rounded_product(self, rng_np):
        a = rng_np.uniform(0, 1, (16, 16)).astype(np.float32)
        b = rng_np.uniform(-5, 5, (16, 16)).astype(np.float32)
        out = fragment_multiply_add(a, b)
        expected = a.astype(np.float16).astype(np.float32) * b.astype(
            np.float16
        ).astype(np.float32)
        np.testing.assert_array_equal(out, expected)

    def test_accumulation_stays_fp32(self, rng_np):
        a = np.full((4, 4), 1.0, dtype=np.float32)
        b = np.full((4, 4), 2.0**-11, dtype=np.float32)
        acc = np.full((4, 4), 1000.0, dtype=np.float32)
        out = fragment_multiply_add(a, b, acc)
        # 2^-11 is representable in fp16; fp32 accumulation keeps the sum
        # distinguishable from the accumulator alone.
        assert np.all(out > 1000.0)

    def test_rounding_error_bounded(self, rng_np):
        """Relative error of the product is within fp16 epsilon-ish bounds."""
        a = rng_np.uniform(0.5, 1.0, 10000).astype(np.float32)
        b = rng_np.uniform(0.5, 1.0, 10000).astype(np.float32)
        exact = a.astype(np.float64) * b.astype(np.float64)
        approx = fragment_multiply_add(a, b).astype(np.float64)
        rel = np.abs(approx - exact) / exact
        assert rel.max() < 2e-3  # fp16 eps ~ 9.8e-4 per operand

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidLaunchError):
            fragment_multiply_add(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_accumulator_shape_checked(self):
        with pytest.raises(InvalidLaunchError):
            fragment_multiply_add(
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3))
            )


def _numpy_product(a, b):
    """The reference: NumPy's fp16 round trip of each operand, float32 product."""
    with np.errstate(over="ignore", invalid="ignore"):
        return to_half(a).astype(np.float32) * to_half(b).astype(np.float32)


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


#: Every special input class of the fp16 rounding, as float32 bit patterns.
FP16_EDGES = _bits(
    0x00000000, 0x80000000,  # +-0
    0x33000000, 0x33C00000, 0xB3000000,  # fp16 subnormal ties 2^-25, 3*2^-25
    0x33800000, 0x33000001,  # 2^-24, just above the 2^-25 tie
    0x387FFFFF, 0x38800000, 0xB8800000,  # the 2^-14 normal boundary
    0x477FE000, 0x477FEFFF, 0x477FF000, 0xC77FF000,  # 65504, 65519.996, 65520
    0x00000001, 0x007FFFFF, 0x80400000,  # float32 subnormals
    0x7F800000, 0xFF800000,  # +-inf
    0x7FC00000, 0xFFC00001, 0x7FC01234,  # quiet NaNs
    0x7F800001, 0x7F801FFF, 0xFF800ABC,  # signalling, payload in low 13 bits
    0x7FA00000, 0x7FBFE000, 0xFF802001,  # signalling, payload in high bits
    0x3F800000, 0x3F800FFF, 0x3F801000, 0x3F803000, 0xBEAAAAAB,  # ties
)


@pytest.mark.skipif(
    native.compiler_path() is None or bool(os.environ.get(fastpath.ENV_GATE)),
    reason="no C compiler, or the native fast path is disabled",
)
class TestNativeFp16Product:
    """The C ``fp16_product`` equals the NumPy round trip byte for byte."""

    @pytest.fixture(autouse=True)
    def _native_loaded(self):
        # With a compiler present the library must load: a kernel that
        # disagrees with NumPy fails the fp16 self-test and never loads,
        # which must not pass as a skip.
        assert fastpath.load() is not None, "fast-path build or self-test failed"

    def _assert_native_equal(self, a, b):
        got = fragment_multiply_add(a, b)
        assert got.tobytes() == _numpy_product(a, b).tobytes()

    @pytest.mark.parametrize("shift", [0, 3, 7])
    def test_every_pair_of_edge_values(self, shift):
        # Shifting the pairs moves each NaN lane between the 8-wide vector
        # groups and the scalar tail.
        a = np.roll(np.repeat(FP16_EDGES, FP16_EDGES.size), shift)
        b = np.tile(FP16_EDGES, FP16_EDGES.size)
        self._assert_native_equal(a, b)

    def test_signalling_nan_keeps_numpy_payload(self):
        a = _bits(*([0x7F800001] * 8))
        got = fragment_multiply_add(a, np.ones(8, dtype=np.float32))
        # NumPy's half keeps the NaN signalling as 0x7c01; the multiply
        # quiets it to 0x7fc02000, where F16C alone gives 0x7fc00000.
        assert set(got.view(np.uint32).tolist()) == {0x7FC02000}

    def test_strided_sweep_of_bit_patterns(self):
        words = np.arange(0, 2**32, 4093, dtype=np.uint64).astype(np.uint32)
        a = words.view(np.float32)
        b = np.random.default_rng(5).permutation(words).view(np.float32)
        self._assert_native_equal(a, b)
        self._assert_native_equal(a, np.ones_like(a))

    def test_in_place_and_accumulate(self, rng_np):
        a = rng_np.uniform(-3, 3, (37, 5)).astype(np.float32)
        b = rng_np.uniform(-3, 3, (37, 5)).astype(np.float32)
        acc = rng_np.uniform(-1, 1, (37, 5)).astype(np.float32)
        want = _numpy_product(a, b)
        assert fragment_multiply_add(a, b, out=b.copy()).tobytes() == want.tobytes()
        b_out = b.copy()
        assert fragment_multiply_add(a, b_out, out=b_out) is b_out
        assert b_out.tobytes() == want.tobytes()
        assert fragment_multiply_add(a, b, acc).tobytes() == (want + acc).tobytes()


class _RefusingLib:
    """Stands in for the fast-path library; its kernel must not be called."""

    def fp16_product(self, a, b, out, n):
        raise AssertionError("operands must have taken the NumPy path")


class TestNumpyFallback:
    @pytest.fixture
    def spy(self, monkeypatch):
        monkeypatch.setattr(fastpath, "load", _RefusingLib)

    def test_non_contiguous_operands(self, spy, rng_np):
        a = rng_np.uniform(0, 1, (16, 32)).astype(np.float32)
        b = rng_np.uniform(-5, 5, (16, 32)).astype(np.float32)
        got = fragment_multiply_add(a[:, ::2], b[:, 1::2])
        assert got.tobytes() == _numpy_product(a[:, ::2], b[:, 1::2]).tobytes()
        got = fragment_multiply_add(a.T, b.T)
        assert got.tobytes() == _numpy_product(a.T, b.T).tobytes()

    def test_float64_operands(self, spy):
        a = np.linspace(-70000.0, 70000.0, 101)
        b = np.linspace(1e-9, 3.0, 101)
        with np.errstate(invalid="ignore"):  # inf * 0 on the NumPy path
            got = fragment_multiply_add(a, b)
        assert got.dtype == np.float32
        assert got.tobytes() == _numpy_product(a, b).tobytes()

    def test_env_gate_keeps_numpy_path(self, monkeypatch):
        monkeypatch.setenv(fastpath.ENV_GATE, "1")
        assert fastpath.load() is None
        a = FP16_EDGES.copy()
        with np.errstate(invalid="ignore"):  # inf * 0 on the NumPy path
            got = fragment_multiply_add(a, a[::-1].copy())
        assert got.tobytes() == _numpy_product(a, a[::-1]).tobytes()

    def test_output_shape_checked(self):
        with pytest.raises(InvalidLaunchError):
            fragment_multiply_add(
                np.zeros((2, 2)), np.zeros((2, 2)), out=np.zeros(4, np.float32)
            )


class TestTensorCoreSpec:
    def _base(self):
        return KernelSpec(name="update", flops_per_elem=10.0)

    def test_sets_tensor_core_flag(self):
        assert tensor_core_spec(self._base()).tensor_core

    def test_allocates_fragment_staging(self):
        spec = tensor_core_spec(self._base(), block_threads=256)
        warps = 256 // 32
        assert spec.shared_mem_per_block == warps * (2 * 512 + 1024)

    def test_non_warp_block_rejected(self):
        with pytest.raises(InvalidLaunchError):
            tensor_core_spec(self._base(), block_threads=100)

    def test_support_detection(self):
        assert supports_tensor_cores(tesla_v100())
        assert not supports_tensor_cores(laptop_gpu())
