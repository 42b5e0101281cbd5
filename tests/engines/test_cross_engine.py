"""Cross-engine equivalence: one algorithm, many substrates.

The paper's fastpso / fastpso-seq / fastpso-omp / gpu-pso comparisons are
meaningful because they run the same algorithm.  Our engines share one
Philox stream layout and one set of numerics, so with equal seeds the
fastpso-family trajectories must be *bit identical* — tensor cores differ
only by fp16 rounding, and the CPU-library baselines differ algorithmically
(by design).
"""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.engines import (
    FastPSOEngine,
    GpuHeteroEngine,
    GpuParticleEngine,
    OpenMPEngine,
    PySwarmsLikeEngine,
    ScikitOptLikeEngine,
    SequentialEngine,
)

FAMILY = [
    SequentialEngine,
    OpenMPEngine,
    GpuParticleEngine,
    GpuHeteroEngine,
    FastPSOEngine,
]


@pytest.fixture
def problem():
    return Problem.from_benchmark("griewank", 12)


@pytest.fixture
def params():
    return PSOParams(seed=31415)


class TestFamilyEquivalence:
    def test_identical_best_values(self, problem, params):
        results = [
            cls().optimize(problem, n_particles=40, max_iter=25, params=params)
            for cls in FAMILY
        ]
        values = {r.best_value for r in results}
        assert len(values) == 1, {r.engine: r.best_value for r in results}

    def test_identical_best_positions(self, problem, params):
        base = SequentialEngine().optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        for cls in FAMILY[1:]:
            other = cls().optimize(
                problem, n_particles=40, max_iter=25, params=params
            )
            np.testing.assert_array_equal(
                base.best_position, other.best_position
            )

    def test_shared_backend_bitwise_equal(self, problem, params):
        base = FastPSOEngine(backend="global").optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        shared = FastPSOEngine(backend="shared").optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        assert base.best_value == shared.best_value
        np.testing.assert_array_equal(base.best_position, shared.best_position)

        # Shared and global run the same velocity kernel semantics; only the
        # cost spec differs.  Edge-tile shapes (dimensions that are not
        # multiples of the 32-wide tile), fp16 storage, the ring topology
        # and the clamp + clip path must all stay bit-identical.
        cases = [
            ((n, d), {}, {})
            for n, d in ((40, 12), (33, 65), (64, 32))
        ] + [
            ((40, 12), {"half_storage": True}, {}),
            ((40, 12), {}, {"topology": "ring"}),
            ((33, 65), {}, {"velocity_clamp": 0.5, "clip_positions": True}),
        ]
        for (n, d), options, overrides in cases:
            case_problem = Problem.from_benchmark("griewank", d)
            case_params = params.with_overrides(**overrides)
            runs = [
                FastPSOEngine(backend=backend, **options).optimize(
                    case_problem,
                    n_particles=n,
                    max_iter=25,
                    params=case_params,
                    record_history=True,
                )
                for backend in ("global", "shared")
            ]
            base, shared = runs
            case = (n, d, options, overrides)
            assert base.best_value == shared.best_value, case
            np.testing.assert_array_equal(
                base.best_position, shared.best_position, err_msg=str(case)
            )
            assert base.history == shared.history, case

    def test_tensorcore_close_but_not_identical(self, problem, params):
        base = FastPSOEngine().optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        tc = FastPSOEngine(backend="tensorcore").optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        # fp16 rounding perturbs the trajectory but not the search quality.
        assert tc.best_value != base.best_value
        assert tc.best_value == pytest.approx(base.best_value, rel=0.5)

    def test_caching_toggle_does_not_change_numerics(self, problem, params):
        a = FastPSOEngine(caching=True).optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        b = FastPSOEngine(caching=False).optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        assert a.best_value == b.best_value

    def test_different_seeds_differ(self, problem):
        a = FastPSOEngine().optimize(
            problem, n_particles=40, max_iter=25, params=PSOParams(seed=1)
        )
        b = FastPSOEngine().optimize(
            problem, n_particles=40, max_iter=25, params=PSOParams(seed=2)
        )
        assert a.best_value != b.best_value


class TestLibraryDivergence:
    def test_library_engines_follow_their_own_algorithm(self, problem, params):
        """pyswarms/scikit-opt must NOT match the clamped family."""
        family = SequentialEngine().optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        for cls in (PySwarmsLikeEngine, ScikitOptLikeEngine):
            lib = cls().optimize(
                problem, n_particles=40, max_iter=25, params=params
            )
            assert lib.best_value != family.best_value

    def test_library_engines_deterministic(self, problem, params):
        a = PySwarmsLikeEngine().optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        b = PySwarmsLikeEngine().optimize(
            problem, n_particles=40, max_iter=25, params=params
        )
        assert a.best_value == b.best_value
