"""Benchmark-function abstraction and registry.

FastPSO ships built-in evaluation functions (the paper names Sphere,
Griewank and Easom, citing the Molga & Smutnicki test-function collection)
and a schema for user-defined ones.  A :class:`BenchmarkFunction` carries:

* NumPy semantics (:meth:`evaluate`) over an ``(n, d)`` position matrix,
  each row scored independently of the others (so
  :class:`~repro.core.schema.BuiltinEvaluation` may score the matrix in
  row blocks, see ``row_blocks``),
* its search domain and the optimum used for error reporting, and
* an :class:`EvalProfile` — the per-element instruction/byte mix of its GPU
  evaluation kernel, consumed by the cost model (transcendental-heavy
  functions such as Easom are measurably slower on CPUs, which is visible in
  the paper's Table 1 as Easom's 3x larger fastpso-seq time).

``reference_value`` is the value errors are measured against in Table 2.
For Easom in high dimension the paper's table reports 0.00 for every
implementation, which is only consistent with referencing the function's
asymptotic plateau (0) rather than the needle minimum (-1); see the Easom
module for the documented quirk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidProblemError, UnknownFunctionError
from repro.utils.arrays import ensure_2d
from repro.utils.naming import unknown_name

__all__ = [
    "EvalProfile",
    "BenchmarkFunction",
    "register",
    "make_function",
    "resolve_function",
    "get_function",
    "available_functions",
]


@dataclass(frozen=True)
class EvalProfile:
    """Per-matrix-element cost profile of a function's evaluation kernel.

    ``flops_per_elem`` covers adds/multiplies per element of P;
    ``sfu_per_elem`` counts transcendental calls (cos/exp/sqrt) per element;
    ``reduction_flops_per_elem`` covers the row-reduction combining the
    per-dimension terms into one fitness value per particle.
    """

    flops_per_elem: float
    sfu_per_elem: float = 0.0
    reduction_flops_per_elem: float = 1.0

    def __post_init__(self) -> None:
        if min(
            self.flops_per_elem, self.sfu_per_elem, self.reduction_flops_per_elem
        ) < 0:
            raise ValueError("evaluation profile terms must be non-negative")


class BenchmarkFunction(ABC):
    """A minimisation test function with domain, optimum and cost profile."""

    #: Registry key and display name.
    name: str = ""
    #: Per-dimension search domain (lo, hi), applied to every coordinate.
    domain: tuple[float, float] = (-1.0, 1.0)
    #: Whether :class:`~repro.core.schema.BuiltinEvaluation` scores a large
    #: swarm in row blocks of at most ``BLOCK_ELEMENTS`` elements instead of
    #: one whole-matrix call.  A function opts out where a row's value could
    #: depend on how many rows share the call, or where blocking does not
    #: pay.
    row_blocks: bool = True

    @abstractmethod
    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        """Fitness of each row of an ``(n, d)`` position matrix.

        Must return an ``(n,)`` float64 vector.  Implementations are pure
        and vectorised; engines wrap them in evaluation kernels.
        """

    @abstractmethod
    def profile(self) -> EvalProfile:
        """Cost profile of the evaluation kernel."""

    def reference_value(self, dim: int) -> float:
        """Value that reported errors are measured against (paper Table 2)."""
        return self.true_minimum_value(dim)

    def true_minimum_value(self, dim: int) -> float:
        """The function's actual global minimum value in *dim* dimensions."""
        return 0.0

    def true_minimum_position(self, dim: int) -> np.ndarray:
        """A global minimiser in *dim* dimensions."""
        return np.zeros(dim)

    # -- helpers -------------------------------------------------------------
    def _validated(self, positions: np.ndarray) -> np.ndarray:
        p = ensure_2d(np.asarray(positions, dtype=np.float64))
        if p.shape[1] == 0:
            raise InvalidProblemError(f"{self.name}: zero-dimensional input")
        return p

    def __call__(self, positions: np.ndarray) -> np.ndarray:
        return self.evaluate(positions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.domain
        return f"{type(self).__name__}(domain=({lo}, {hi}))"


_REGISTRY: dict[str, type[BenchmarkFunction]] = {}


def register(cls: type[BenchmarkFunction]) -> type[BenchmarkFunction]:
    """Class decorator adding a function to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    key = cls.name.lower()
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"duplicate benchmark function name {cls.name!r}")
    _REGISTRY[key] = cls
    return cls


def resolve_function(name: str) -> str:
    """Resolve *name* to its canonical registry key.

    The function-registry analogue of
    :func:`repro.engines.resolve_engine`: callers that *compare* or
    serialize function names see through case differences without paying
    for an instantiation.  Unknown names raise
    :class:`~repro.errors.UnknownFunctionError` (an
    :class:`~repro.errors.InvalidParameterError`) with a did-you-mean hint.
    """
    key = str(name).lower()
    if key not in _REGISTRY:
        raise unknown_name(
            "benchmark function",
            name,
            available_functions(),
            exc_type=UnknownFunctionError,
        ) from None
    return key


def make_function(name: str) -> BenchmarkFunction:
    """Instantiate a registered benchmark function by (case-insensitive) name.

    The function-registry analogue of :func:`repro.engines.make_engine`.
    Unknown names raise :class:`~repro.errors.UnknownFunctionError` with a
    did-you-mean hint and the full registry listing.
    """
    return _REGISTRY[resolve_function(name)]()


def get_function(name: str) -> BenchmarkFunction:
    """Deprecated alias of :func:`make_function`.

    .. deprecated::
        Renamed to :func:`make_function` to mirror ``make_engine`` /
        ``resolve_engine``; this shim forwards and will be removed in a
        future release.
    """
    import warnings

    warnings.warn(
        "get_function() is renamed to make_function() (mirroring "
        "make_engine); the get_function alias will be removed",
        DeprecationWarning,
        stacklevel=2,
    )
    return make_function(name)


def available_functions() -> list[str]:
    """Sorted names of all registered benchmark functions."""
    return sorted(_REGISTRY)
