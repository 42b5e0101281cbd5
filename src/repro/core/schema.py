"""Customised swarm-evaluation schema (paper technique iv).

FastPSO lets practitioners pass their own evaluation function, which the
CUDA implementation wraps in a grid-stride template kernel::

    template<typename L>
    __global__ void evaluation_kernel(int dim, L lambda) {
        for (i = blockIdx.x*blockDim.x + threadIdx.x; i < dim;
             i += blockDim.x*gridDim.x)
            lambda(i);
    }

The Python equivalents keep the same contract: the user supplies a function
plus a cost profile, and the engines parallelise it without the user writing
any launch code.  Three schema flavours cover the paper's cases:

* :class:`BuiltinEvaluation` — a registered :class:`BenchmarkFunction`,
  scored in row blocks of at most :data:`BLOCK_ELEMENTS` elements, the
  host's bounded slice of the grid-stride loop.
* :class:`ElementwiseEvaluation` — a per-element transform ``g(x_ij)`` (or
  ``g(x_ij, j)``) combined by a row reduction; maps to the element-wise
  template above.
* :class:`ParticleEvaluation` — an arbitrary per-particle objective
  ``f(row) -> scalar`` (or a vectorised ``f(P) -> values``); maps to a
  thread-per-particle kernel, which is the right granularity when the
  objective is opaque (the ThunderGBM case study uses this flavour).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.errors import EvaluationError
from repro.functions.base import BenchmarkFunction, EvalProfile

__all__ = [
    "EvaluationSchema",
    "BuiltinEvaluation",
    "ElementwiseEvaluation",
    "ParticleEvaluation",
]

#: Most elements of ``positions`` one call of a registry function scores:
#: :class:`BuiltinEvaluation` walks larger swarms in blocks of
#: ``BLOCK_ELEMENTS // d`` rows, so each float64 temporary of the
#: function's expression stays at 64 KiB or less, under glibc's default
#: 128 KiB mmap threshold, and the heap stops growing and trimming around
#: every evaluation.
BLOCK_ELEMENTS = 8192

_REDUCERS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda terms: np.sum(terms, axis=1),
    "prod": lambda terms: np.prod(terms, axis=1),
    "max": lambda terms: np.max(terms, axis=1),
    "min": lambda terms: np.min(terms, axis=1),
}


class EvaluationSchema(ABC):
    """Common interface every engine uses to score the swarm."""

    #: Kind tag engines use to pick a launch geometry:
    #: "elementwise" kernels span n*d elements, "particle" kernels span n.
    granularity: str = "elementwise"

    @abstractmethod
    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        """Fitness of each row of ``positions``; returns shape ``(n,)``."""

    @abstractmethod
    def profile(self) -> EvalProfile:
        """Cost profile of the evaluation kernel."""

    def _check_output(self, values: np.ndarray, n: int) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n,):
            raise EvaluationError(
                f"evaluation must return shape ({n},), got {values.shape}"
            )
        if np.any(np.isnan(values)):
            raise EvaluationError(
                "evaluation produced NaN fitness values; FastPSO treats NaN "
                "as a user error rather than silently ranking it"
            )
        return values


class BuiltinEvaluation(EvaluationSchema):
    """Schema wrapper over a registered benchmark function.

    Like the paper's grid-stride ``evaluation_kernel``, it scores the swarm
    in bounded slices: a function whose ``row_blocks`` is set sees at most
    :data:`BLOCK_ELEMENTS` elements per call, and the row blocks are written
    into one ``(n,)`` float64 result that is checked once.  A function that
    blocks gives each row the same bits whatever the rows around it, so
    the values are bit-identical to one whole-matrix call.
    """

    granularity = "elementwise"

    def __init__(self, function: BenchmarkFunction) -> None:
        if not isinstance(function, BenchmarkFunction):
            raise TypeError(
                f"expected a BenchmarkFunction, got {type(function).__name__}"
            )
        self.function = function

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        function, n = self.function, positions.shape[0]
        rows = n
        if function.row_blocks and positions.ndim == 2 and positions.shape[1]:
            # A row wider than the budget is scored with the whole matrix:
            # above 8192 elements NumPy sums a one-row einsum in another
            # order than the same row of a taller matrix.
            rows = BLOCK_ELEMENTS // positions.shape[1] or n
        if rows >= n:
            return self._check_output(function.evaluate(positions), n)
        values = np.empty(n)
        for start in range(0, n, rows):
            values[start:start + rows] = function.evaluate(
                positions[start:start + rows]
            )
        return self._check_output(values, n)

    def profile(self) -> EvalProfile:
        return self.function.profile()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BuiltinEvaluation({self.function.name!r})"


class ElementwiseEvaluation(EvaluationSchema):
    """User-defined per-element transform + row reduction.

    ``elem_fn`` must be NumPy-vectorised: it receives the whole ``(n, d)``
    matrix (and, if ``pass_index`` is set, a ``(d,)`` column-index vector to
    broadcast against) and returns the per-element terms.  The ``reducer``
    ("sum", "prod", "max", "min") combines each row into one fitness value.
    """

    granularity = "elementwise"

    def __init__(
        self,
        elem_fn: Callable[..., np.ndarray],
        *,
        reducer: str = "sum",
        profile: EvalProfile | None = None,
        pass_index: bool = False,
    ) -> None:
        if not callable(elem_fn):
            raise TypeError("elem_fn must be callable")
        if reducer not in _REDUCERS:
            raise EvaluationError(
                f"unknown reducer {reducer!r}; choose from {sorted(_REDUCERS)}"
            )
        self.elem_fn = elem_fn
        self.reducer_name = reducer
        self._reduce = _REDUCERS[reducer]
        self._profile = profile or EvalProfile(flops_per_elem=4.0, sfu_per_elem=1.0)
        self.pass_index = pass_index

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        p = np.asarray(positions, dtype=np.float64)
        try:
            if self.pass_index:
                terms = self.elem_fn(p, np.arange(p.shape[1]))
            else:
                terms = self.elem_fn(p)
        except Exception as exc:  # user code: surface with context
            raise EvaluationError(
                f"element-wise evaluation raised {type(exc).__name__}: {exc}"
            ) from exc
        terms = np.asarray(terms, dtype=np.float64)
        if terms.shape != p.shape:
            raise EvaluationError(
                f"element function must preserve shape {p.shape}, got {terms.shape}"
            )
        return self._check_output(self._reduce(terms), p.shape[0])

    def profile(self) -> EvalProfile:
        return self._profile


class ParticleEvaluation(EvaluationSchema):
    """User-defined per-particle objective.

    If ``vectorized`` the callable maps ``(n, d) -> (n,)`` directly;
    otherwise it maps one ``(d,)`` row to a scalar and is applied row by row
    (the per-thread loop a thread-per-particle kernel would run).
    """

    granularity = "particle"

    def __init__(
        self,
        fn: Callable[..., object],
        *,
        vectorized: bool = False,
        profile: EvalProfile | None = None,
    ) -> None:
        if not callable(fn):
            raise TypeError("objective must be callable")
        self.fn = fn
        self.vectorized = vectorized
        self._profile = profile or EvalProfile(flops_per_elem=8.0, sfu_per_elem=1.0)

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        p = np.asarray(positions, dtype=np.float64)
        try:
            if self.vectorized:
                values = self.fn(p)
            else:
                values = np.array([float(self.fn(row)) for row in p])
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"particle evaluation raised {type(exc).__name__}: {exc}"
            ) from exc
        return self._check_output(np.asarray(values), p.shape[0])

    def profile(self) -> EvalProfile:
        return self._profile
