"""The compiled Sphere kernel (``sphere_rows`` in ``_fastpath.c``).

``Sphere.evaluate`` sends C-contiguous 2-D float32 positions to the C
kernel whenever the fast-path library loads; the contract is bit-identity
with ``np.einsum("ij,ij->i", p, p)`` on the float64 copy ``p``, which stays
the reference and the fallback.  These tests pin that contract on shapes
either side of the kernel's 4-row / 2-row groups and 8-element chunks and
on every float32 special class, check which inputs take which path, check
that the kernel's own known-answer test rejects any other summation order,
and check that whole runs serialize byte-identically with the kernel on
and off on every tier that evaluates Sphere.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchScheduler, Job
from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.engines import make_engine
from repro.errors import InvalidProblemError
from repro.functions import Sphere
from repro.gpusim import fastpath
from repro.gpusim.fastpath import ENV_GATE
from repro.io import result_to_dict

needs_native = pytest.mark.skipif(
    fastpath.sphere_rows(np.ones((1, 1), np.float32)) is None,
    reason="no C compiler, fast path disabled, or sphere kernel rejected",
)

#: ±0, float32 subnormals (smallest, largest, both signs), ±Inf, NaN and
#: ±FLT_MAX.
SPECIALS = np.array(
    [
        0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF,
        0x807FFFFF, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7F7FFFFF,
        0xFF7FFFFF,
    ],
    dtype=np.uint32,
).view(np.float32)


def einsum_reference(x) -> np.ndarray:
    p = np.asarray(x, dtype=np.float64)
    return np.einsum("ij,ij->i", p, p)


def spread(rng, n, d, special_frac=0.0) -> np.ndarray:
    """Float32 ``(n, d)`` with magnitudes over six decades, so the bits of
    a row sum depend on the summation order; a *special_frac* share of
    the entries is replaced by special values."""
    x = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))).astype(
        np.float32
    )
    k = int(special_frac * x.size)
    if k:
        x.flat[rng.choice(x.size, size=k, replace=False)] = rng.choice(SPECIALS, k)
    return x


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts calls into the C kernel."""
    calls = []
    real = fastpath._sphere_call

    def spy(fn, x):
        calls.append(x.shape)
        return real(fn, x)

    monkeypatch.setattr(fastpath, "_sphere_call", spy)
    return calls


def assert_bits_equal(x, kernel_calls):
    got = Sphere().evaluate(x)
    assert kernel_calls, "the kernel did not run"
    assert got.dtype == np.float64 and got.shape == (x.shape[0],)
    assert got.tobytes() == einsum_reference(x).tobytes()


# -- the order emulations the known-answer check must tell apart -------------


def lanes_order(lanes: int):
    """NumPy's einsum inner loop at *lanes* double lanes, in NumPy:
    4-vector chunks fold as ``q0 + (q1 + (q2 + (q3 + acc)))``, then whole
    vectors, then the odd elements into the low lanes, then the lane sum
    added to 0.0."""

    def rows(x):
        q = x.astype(np.float64) ** 2  # exact: a float32 square fits a double
        n, d = q.shape
        acc = np.zeros((n, lanes))
        j = 0
        while j + 4 * lanes <= d:
            c = q[:, j : j + 4 * lanes].reshape(n, 4, lanes)
            acc = c[:, 0] + (c[:, 1] + (c[:, 2] + (c[:, 3] + acc)))
            j += 4 * lanes
        while j + lanes <= d:
            acc = q[:, j : j + lanes] + acc
            j += lanes
        for k in range(d - j):
            acc[:, k] = q[:, j + k] + acc[:, k]
        total = acc[:, 0]
        for k in range(1, lanes):
            total = total + acc[:, k]
        return 0.0 + total

    return rows


def pairwise_order(x):
    q = x.astype(np.float64) ** 2
    return q.sum(axis=1)


def running_sum_order(x):
    q = x.astype(np.float64) ** 2
    acc = np.zeros(q.shape[0])
    for j in range(q.shape[1]):
        acc = acc + q[:, j]
    return acc


class TestKnownAnswerCheck:
    def test_accepts_the_two_lane_order(self):
        assert fastpath._sphere_self_test(lanes_order(2))

    @pytest.mark.parametrize(
        "order",
        [lanes_order(4), lanes_order(8), pairwise_order, running_sum_order],
        ids=["four-lane", "eight-lane", "pairwise", "running-sum"],
    )
    def test_rejects_every_other_order(self, order):
        assert not fastpath._sphere_self_test(order)

    @needs_native
    def test_failed_check_disables_only_the_kernel(self, monkeypatch, kernel_calls):
        monkeypatch.delenv(ENV_GATE, raising=False)
        monkeypatch.setattr(fastpath, "_sphere_self_test", lambda rows: False)
        monkeypatch.setattr(fastpath, "_sphere_verdict", (None, False))
        x = spread(np.random.default_rng(1), 9, 50)
        assert fastpath.sphere_rows(x) is None
        assert fastpath.available()  # fastpath_step and fp16_product stay
        got = Sphere().evaluate(x)
        assert not kernel_calls
        assert got.tobytes() == einsum_reference(x).tobytes()


@needs_native
class TestKernelBits:
    def test_every_small_shape(self, kernel_calls):
        # n either side of the 4-row and 2-row groups, d either side of the
        # 8-element chunks, a fifth of the entries special.
        rng = np.random.default_rng(24)
        for n in range(1, 20):
            for d in range(1, 42):
                x = spread(rng, n, d, special_frac=0.2 if n % 3 == 0 else 0.0)
                assert_bits_equal(x, kernel_calls)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([*range(1, 20), 2000]),
        d=st.sampled_from([*range(1, 42), 64, 257]),
        special_frac=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_einsum(self, n, d, special_frac, seed):
        x = spread(np.random.default_rng(seed), n, d, special_frac)
        got = fastpath.sphere_rows(x)
        assert got.tobytes() == einsum_reference(x).tobytes()

    @pytest.mark.parametrize("value", SPECIALS, ids=lambda v: f"{v!r}")
    def test_each_special_alone(self, value, kernel_calls):
        x = np.full((5, 19), value, dtype=np.float32)
        assert_bits_equal(x, kernel_calls)

    # The signalling NaN warns in the float64 cast, on either path alike.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_nan_payloads_match_einsum(self, kernel_calls):
        # Rows mixing NaNs of both signs and several payloads at varying
        # places: which one an add keeps is each compiler's choice, and
        # the raw kernel's bits differ from einsum's on some of these rows,
        # so NaN rows are rescored.
        nans = np.array(
            [0x7FC00000, 0xFFC00000, 0x7FC00123, 0xFFE00001, 0x7F800001],
            dtype=np.uint32,
        ).view(np.float32)
        rng = np.random.default_rng(7)
        x = spread(rng, 40, 37)
        for row in x[::2]:
            row[rng.choice(37, 5, replace=False)] = rng.permutation(nans)
        x[1, 30] = np.inf
        assert_bits_equal(x, kernel_calls)


def read_only(x):
    x.flags.writeable = False
    return x


class TestNumpyPath:
    """Every input the kernel does not take keeps ``_validated`` + einsum."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x.astype(np.float64),
            lambda x: x.astype(np.float16),
            lambda x: x[:, ::2],
            lambda x: np.asfortranarray(x),
            lambda x: x[0],
            lambda x: x.tolist(),
            lambda x: x[:0],
            read_only,
        ],
        ids=[
            "float64", "float16", "strided", "fortran", "1-d", "list", "no-rows",
            "read-only",
        ],
    )
    def test_other_inputs_take_einsum(self, make, kernel_calls):
        x = make(spread(np.random.default_rng(3), 6, 18))
        got = Sphere().evaluate(x)
        assert not kernel_calls
        want = einsum_reference(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        assert got.tobytes() == want.tobytes()

    def test_env_gate_takes_einsum(self, monkeypatch, kernel_calls):
        monkeypatch.setenv(ENV_GATE, "1")
        x = spread(np.random.default_rng(4), 6, 18)
        assert fastpath.sphere_rows(x) is None
        assert Sphere().evaluate(x).tobytes() == einsum_reference(x).tobytes()
        assert not kernel_calls

    def test_zero_dimensions_still_raise(self):
        with pytest.raises(InvalidProblemError):
            Sphere().evaluate(np.empty((4, 0), dtype=np.float32))


# -- whole runs, kernel on vs off --------------------------------------------


def _params(seed):
    return replace(PAPER_DEFAULTS, seed=seed)


def _solo(name, **options):
    engine = make_engine(name, **options)
    result = engine.optimize(
        Problem.from_benchmark("sphere", 12),
        n_particles=48,
        max_iter=40,
        params=_params(5),
        record_history=True,
    )
    return engine, json.dumps(result_to_dict(result), sort_keys=True)


def _fused():
    jobs = [
        Job(
            "sphere",
            dim=10,
            n_particles=32,
            max_iter=30,
            params=_params(40 + i),
            record_history=True,
        )
        for i in range(3)
    ]
    batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
    (row,) = batch.fused_rows
    assert row["n_fused"] == 3
    return [
        json.dumps(result_to_dict(o.result), sort_keys=True) for o in batch.outcomes
    ]


@needs_native
class TestRunsKernelOnOff:
    @pytest.fixture(autouse=True)
    def _native_on(self, monkeypatch):
        monkeypatch.delenv(ENV_GATE, raising=False)

    def _off(self, monkeypatch):
        monkeypatch.setattr(fastpath, "sphere_rows", lambda x: None)

    @pytest.mark.parametrize(
        "name, options, tier",
        [
            ("fastpso", {"graph": False}, None),
            ("fastpso", {}, "active"),
            ("fastpso-seq", {}, None),
        ],
        ids=["fastpso-eager", "fastpso-native", "fastpso-seq"],
    )
    def test_solo_payload_identical(
        self, name, options, tier, monkeypatch, kernel_calls
    ):
        engine, on = _solo(name, **options)
        assert kernel_calls
        if tier is not None:
            assert engine.graph_info["native"] == tier
        self._off(monkeypatch)
        kernel_calls.clear()
        _, off = _solo(name, **options)
        assert not kernel_calls
        assert on == off

    def test_fused_batch_payloads_identical(self, monkeypatch, kernel_calls):
        on = _fused()
        assert kernel_calls
        self._off(monkeypatch)
        kernel_calls.clear()
        off = _fused()
        assert not kernel_calls
        assert on == off
