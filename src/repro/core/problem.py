"""Optimization problem definition.

A :class:`Problem` bundles what Algorithm 1 needs: the search-space
dimensionality, per-dimension bounds, an evaluation schema, and the
reference value that reported errors are measured against (Table 2's
"errors to the optimal values").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schema import (
    BuiltinEvaluation,
    EvaluationSchema,
    ParticleEvaluation,
)
from repro.errors import InvalidProblemError
from repro.functions.base import BenchmarkFunction, EvalProfile, make_function
from repro.utils.arrays import as_float_vector

__all__ = ["Problem"]


def _uniform(values: np.ndarray) -> bool:
    """Whether every entry of a float64 vector has the bits of the first."""
    bits = values.view(np.int64)
    return bool((bits == bits[0]).all())


@dataclass
class Problem:
    """A bounded minimisation problem for the PSO engines.

    Use the :meth:`from_benchmark` / :meth:`from_callable` constructors in
    application code; the raw constructor is for fully custom schemas.
    The clip bounds are derived from the bounds once, at construction, so
    change bounds with :func:`dataclasses.replace`, not in place.
    """

    name: str
    dim: int
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray
    evaluator: EvaluationSchema
    reference_value: float = 0.0

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise InvalidProblemError(f"dimension must be positive, got {self.dim}")
        self.lower_bounds = as_float_vector(
            self.lower_bounds, name="lower_bounds", dim=self.dim
        )
        self.upper_bounds = as_float_vector(
            self.upper_bounds, name="upper_bounds", dim=self.dim
        )
        if not np.all(np.isfinite(self.lower_bounds)) or not np.all(
            np.isfinite(self.upper_bounds)
        ):
            raise InvalidProblemError(
                f"problem {self.name!r}: bounds must be finite (no NaN/Inf); "
                "an unbounded axis makes swarm initialisation undefined"
            )
        if np.any(self.lower_bounds >= self.upper_bounds):
            raise InvalidProblemError(
                "every lower bound must be strictly below its upper bound"
            )
        if not isinstance(self.evaluator, EvaluationSchema):
            raise InvalidProblemError(
                f"evaluator must be an EvaluationSchema, got "
                f"{type(self.evaluator).__name__}"
            )
        # Decided once per problem, so no clip checks its bounds per call.
        # Where every dimension has the same bound (bit for bit), the clips
        # run against float32 scalars instead of NumPy's per-row broadcast.
        lo, hi, width = self.lower_bounds, self.upper_bounds, self.domain_width
        #: The float32 domain bounds ``position_update`` clips against.
        self.position_clip = (
            (np.float32(lo[0]), np.float32(hi[0]))
            if _uniform(lo) and _uniform(hi)
            else (lo.astype(np.float32), hi.astype(np.float32))
        )
        #: The one domain width of every dimension, else ``None``.
        self.uniform_width = width[0] if _uniform(width) else None

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_benchmark(
        cls, function: str | BenchmarkFunction, dim: int
    ) -> "Problem":
        """Build a problem from a built-in benchmark function by name."""
        fn = make_function(function) if isinstance(function, str) else function
        lo, hi = fn.domain
        return cls(
            name=fn.name,
            dim=dim,
            lower_bounds=np.full(dim, lo),
            upper_bounds=np.full(dim, hi),
            evaluator=BuiltinEvaluation(fn),
            reference_value=fn.reference_value(dim),
        )

    @classmethod
    def from_callable(
        cls,
        fn,
        dim: int,
        bounds: tuple[float, float] | tuple[np.ndarray, np.ndarray],
        *,
        name: str = "custom",
        vectorized: bool = False,
        profile: EvalProfile | None = None,
        reference_value: float = 0.0,
    ) -> "Problem":
        """Build a problem around an arbitrary objective callable.

        ``bounds`` is either a scalar ``(lo, hi)`` pair applied to every
        dimension or a pair of per-dimension vectors.
        """
        lo, hi = bounds
        lo_vec = np.full(dim, lo) if np.isscalar(lo) else np.asarray(lo)
        hi_vec = np.full(dim, hi) if np.isscalar(hi) else np.asarray(hi)
        return cls(
            name=name,
            dim=dim,
            lower_bounds=lo_vec,
            upper_bounds=hi_vec,
            evaluator=ParticleEvaluation(fn, vectorized=vectorized, profile=profile),
            reference_value=reference_value,
        )

    # -- derived quantities ----------------------------------------------------
    @property
    def domain_width(self) -> np.ndarray:
        """Per-dimension search-space width (drives velocity clamping)."""
        return self.upper_bounds - self.lower_bounds

    def velocity_bounds(self, clamp: float | None) -> tuple[np.ndarray, np.ndarray] | None:
        """Eq. (5) bounds for a clamp fraction, or ``None`` when unclamped."""
        if clamp is None:
            return None
        span = clamp * self.domain_width
        return -span, span

    def error_of(self, value: float) -> float:
        """Distance of an achieved objective value from the reference."""
        return abs(float(value) - self.reference_value)
