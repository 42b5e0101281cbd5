"""Row-blocked scoring of the registry objectives.

:class:`~repro.core.schema.BuiltinEvaluation` scores a swarm of more than
``BLOCK_ELEMENTS`` elements in row blocks, the host's bounded slice of the
paper's grid-stride evaluation kernel.  The contract is bit-identity: every
registry function gives the same bytes blocked and as one whole-matrix call,
on every shape and every IEEE special value, and a NaN fitness still raises.
User callables are never blocked, and a fused batch that stacks blocked
objectives still equals its members' solo runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.batch import BatchScheduler, Job
from repro.core import schema
from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.schema import BLOCK_ELEMENTS, BuiltinEvaluation
from repro.engines import make_engine
from repro.errors import EvaluationError, InvalidProblemError
from repro.functions import available_functions, make_function
from repro.io import result_to_dict

NAMES = available_functions()
BLOCKED = [name for name in NAMES if make_function(name).row_blocks]

#: (n, d) shapes around the block size ``BLOCK_ELEMENTS // d``: whole
#: blocks, odd tails, a tail of one row, block sizes on and off the 4-, 8-
#: and 16-lane SIMD widths, and one-row blocks (d > BLOCK_ELEMENTS / 2).
SHAPES = [
    (257, 64),  # blocks of 128 rows, a one-row tail
    (384, 64),  # three whole blocks
    (300, 37),  # blocks of 221 rows
    (2000, 50),  # blocks of 163 rows
    (1025, 8),  # blocks of 1024 rows, a one-row tail
    (2049, 4),  # blocks of 2048 rows
    (563, 16),  # blocks of 512 rows, an odd tail
    (4000, 3),  # blocks of 2730 rows
    (1091, 15),  # blocks of 546 rows
    (1000, 17),  # blocks of 481 rows
    (7, 4097),  # blocks of one row
    (3, 8192),  # blocks of one row, exactly the budget
    (2, 8193),  # a row wider than the budget: never blocked
]


def _positions(name, n, d, seed=0):
    lo, hi = make_function(name).domain
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, (n, d)).astype(np.float32)


def _block_rows(n, d):
    rows = BLOCK_ELEMENTS // d or n
    return [min(rows, n - start) for start in range(0, n, rows)]


class TestBlockedEqualsWhole:
    @pytest.mark.parametrize("n, d", SHAPES)
    @pytest.mark.parametrize("name", NAMES)
    def test_registry_function_bytes(self, name, n, d):
        fn = make_function(name)
        x = _positions(name, n, d)
        blocked = BuiltinEvaluation(fn).evaluate(x)
        whole = fn.evaluate(x)
        assert blocked.dtype == np.float64 and blocked.shape == (n,)
        assert blocked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_blocks_cover_every_row_once(self, monkeypatch, n, d):
        """The function sees consecutive slices of at most the budget's
        rows, and their row counts add up to the swarm."""
        cls = type(make_function("rastrigin"))
        seen = []
        orig = cls.evaluate

        def spy(self, positions):
            seen.append(positions)
            return orig(self, positions)

        monkeypatch.setattr(cls, "evaluate", spy)
        x = _positions("rastrigin", n, d)
        BuiltinEvaluation(cls()).evaluate(x)
        assert [len(block) for block in seen] == _block_rows(n, d)
        assert np.concatenate(seen).tobytes() == x.tobytes()

    def test_small_swarm_is_one_call(self, monkeypatch):
        cls = type(make_function("levy"))
        seen = []
        orig = cls.evaluate
        monkeypatch.setattr(
            cls, "evaluate", lambda self, p: seen.append(p.shape) or orig(self, p)
        )
        BuiltinEvaluation(cls()).evaluate(_positions("levy", 32, 8))
        assert seen == [(32, 8)]

    @pytest.mark.parametrize("name", ["sphere", "zakharov"])
    def test_opted_out_functions_see_the_whole_swarm(self, monkeypatch, name):
        cls = type(make_function(name))
        assert cls.row_blocks is False
        seen = []
        orig = cls.evaluate
        monkeypatch.setattr(
            cls, "evaluate", lambda self, p: seen.append(p.shape) or orig(self, p)
        )
        BuiltinEvaluation(cls()).evaluate(_positions(name, 1024, 64))
        assert seen == [(1024, 64)]

    @pytest.mark.parametrize("name", ["rosenbrock", "dixon_price"])
    def test_dimension_errors_survive_blocking(self, name):
        x = _positions(name, BLOCK_ELEMENTS + 5, 1)
        with pytest.raises(InvalidProblemError):
            BuiltinEvaluation(make_function(name)).evaluate(x)

    @pytest.mark.parametrize("name", BLOCKED)
    def test_nan_row_in_a_later_block_raises(self, name):
        fn = make_function(name)
        x = _positions(name, 257, 64)
        x[256, 5] = np.nan  # the one-row tail
        if not np.isnan(fn.evaluate(x)[256]):
            pytest.skip(f"{name} maps a NaN coordinate to a number")
        with pytest.raises(EvaluationError, match="NaN"):
            BuiltinEvaluation(fn).evaluate(x)


#: IEEE special values every objective must pass through unchanged by
#: blocking: signed zeros, the smallest and largest float32 subnormals,
#: the infinities and NaN, beside ordinary values.
SPECIALS = [
    0.0,
    -0.0,
    1e-45,
    -1e-45,
    1.1754942e-38,
    -1.1754942e-38,
    np.inf,
    -np.inf,
    np.nan,
    1.0,
    -3.5,
]


@st.composite
def swarms(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    elements = st.one_of(
        st.sampled_from(SPECIALS),
        st.floats(-600.0, 600.0, width=32),
    )
    x = draw(hnp.arrays(np.float32, (n, d), elements=elements))
    budget = draw(st.integers(1, n * d))
    return x, budget


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(name=st.sampled_from(NAMES), case=swarms())
def test_blocked_bytes_under_special_values(monkeypatch, name, case):
    """Any budget, any values: the blocked result is the whole-matrix
    result byte for byte, and a NaN fitness raises either way."""
    x, budget = case
    fn = make_function(name)
    monkeypatch.setattr(schema, "BLOCK_ELEMENTS", budget)
    with np.errstate(all="ignore"):
        try:
            whole = fn.evaluate(x)
        except InvalidProblemError:
            with pytest.raises(InvalidProblemError):
                BuiltinEvaluation(fn).evaluate(x)
            return
        if np.isnan(whole).any():
            with pytest.raises(EvaluationError):
                BuiltinEvaluation(fn).evaluate(x)
            return
        blocked = BuiltinEvaluation(fn).evaluate(x)
    assert blocked.tobytes() == whole.tobytes()


class TestCallablesAreNotBlocked:
    @pytest.mark.parametrize(
        "name, vectorized, per_evaluation, shape",
        [
            # Pinned before row blocks existed: one call per swarm
            # evaluation, one per chunk (fastpso-async) or one per row.
            ("fastpso", True, 1, (64, 200)),
            ("fastpso-seq", True, 1, (64, 200)),
            ("fastpso-async", True, 4, (16, 200)),
            ("fastpso", False, 64, (200,)),
            ("fastpso-async", False, 64, (200,)),
        ],
    )
    def test_call_count_is_unchanged(self, name, vectorized, per_evaluation, shape):
        seen = []

        def objective(x):
            seen.append(np.shape(x))
            return np.sum(x * x, axis=-1)

        problem = Problem.from_callable(
            objective, 200, (-5.0, 5.0), vectorized=vectorized
        )
        engine = make_engine(name)
        engine.optimize(
            problem, n_particles=64, max_iter=12, params=PSOParams(seed=3)
        )
        # One evaluation per iteration, and one more where the native
        # tier's promotion check scored the swarm again.
        evaluations = 12 + (engine.graph_info.get("native") == "active")
        assert len(seen) == per_evaluation * evaluations
        assert set(seen) == {shape}


def test_fused_blocked_stack_equals_solo(monkeypatch):
    """rastrigin and levy members of one fused group: each same-function
    pair is scored stacked, in row blocks, and every member's serialized
    result equals its solo run."""
    n, d = 160, 64  # n*d = 10240 per member: blocked solo and stacked
    widths = []
    for name in ("rastrigin", "levy"):
        cls = type(make_function(name))

        def spy(self, positions, _orig=cls.evaluate):
            widths.append(positions.size)
            return _orig(self, positions)

        monkeypatch.setattr(cls, "evaluate", spy)
    jobs = [
        Job(name, dim=d, n_particles=n, max_iter=12, seed=900 + i)
        for i, name in enumerate(["rastrigin", "rastrigin", "levy", "levy"])
    ]
    batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
    (row,) = batch.fused_rows
    assert row["n_fused"] == len(jobs)
    assert row["fast_rounds"] > 0
    assert max(widths) <= BLOCK_ELEMENTS
    for job, outcome in zip(jobs, batch.outcomes):
        engine = make_engine(job.engine, **dict(job.engine_options))
        solo = engine.optimize(
            job.resolved_problem(),
            n_particles=job.n_particles,
            max_iter=job.max_iter,
            params=job.resolved_params,
            record_history=job.record_history,
        )
        assert result_to_dict(outcome.result) == result_to_dict(solo)
