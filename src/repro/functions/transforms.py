"""Shifted and rotated benchmark-function transforms (CEC-style).

The raw Molga & Smutnicki functions all put their optimum at a trivially
guessable point (the origin or the all-ones vector), which flatters
centre-biased initialisers.  The standard remedy — used by every CEC
competition suite — is composing them with an affine transform:

* :class:`Shifted` moves the optimum to ``x* + offset`` (f values
  unchanged: ``g(x) = f(x - offset)``);
* :class:`Rotated` evaluates ``f(Q (x - c) + c)`` for an orthogonal ``Q``
  about the domain centre ``c``, destroying separability while preserving
  the optimum *value*.

Both wrap any :class:`BenchmarkFunction` and remain benchmark functions
themselves (domain, profile, reference value all flow through), so they
compose with every engine and the schema machinery untouched.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidProblemError
from repro.functions.base import BenchmarkFunction, EvalProfile
from repro.utils.arrays import as_float_vector

__all__ = ["Shifted", "Rotated", "random_rotation"]


def random_rotation(dim: int, seed: int = 0) -> np.ndarray:
    """A uniformly random orthogonal matrix (QR of a Gaussian matrix)."""
    if dim <= 0:
        raise InvalidProblemError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    # Fix the signs so the distribution is Haar-uniform.
    q *= np.sign(np.diag(r))
    return q


class Shifted(BenchmarkFunction):
    """``g(x) = f(x - offset)``: the optimum moves by *offset*."""

    def __init__(self, inner: BenchmarkFunction, offset) -> None:
        if not isinstance(inner, BenchmarkFunction):
            raise TypeError("inner must be a BenchmarkFunction")
        self.inner = inner
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.offset.ndim != 1:
            raise InvalidProblemError("offset must be a 1-D vector")
        self.name = f"shifted_{inner.name}"
        self.domain = inner.domain
        self.row_blocks = inner.row_blocks

    def _offset_for(self, dim: int) -> np.ndarray:
        return as_float_vector(self.offset, name="offset", dim=dim)

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        p = self._validated(positions)
        return self.inner.evaluate(p - self._offset_for(p.shape[1]))

    def profile(self) -> EvalProfile:
        prof = self.inner.profile()
        # One extra subtraction per element for the shift.
        return EvalProfile(
            flops_per_elem=prof.flops_per_elem + 1.0,
            sfu_per_elem=prof.sfu_per_elem,
            reduction_flops_per_elem=prof.reduction_flops_per_elem,
        )

    def true_minimum_value(self, dim: int) -> float:
        return self.inner.true_minimum_value(dim)

    def true_minimum_position(self, dim: int) -> np.ndarray:
        return self.inner.true_minimum_position(dim) + self._offset_for(dim)

    def reference_value(self, dim: int) -> float:
        return self.inner.reference_value(dim)


class Rotated(BenchmarkFunction):
    """``g(x) = f(Q (x - c) + c)`` for an orthogonal *Q* about the centre.

    Rotation about the domain centre keeps the search box meaningful; the
    optimum value is preserved, its position moves to
    ``c + Q^T (x* - c)``.
    """

    def __init__(self, inner: BenchmarkFunction, rotation: np.ndarray) -> None:
        if not isinstance(inner, BenchmarkFunction):
            raise TypeError("inner must be a BenchmarkFunction")
        q = np.asarray(rotation, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InvalidProblemError("rotation must be a square matrix")
        if not np.allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-8):
            raise InvalidProblemError("rotation matrix must be orthogonal")
        self.inner = inner
        self.rotation = q
        self.name = f"rotated_{inner.name}"
        self.domain = inner.domain
        # A BLAS matrix product is not promised the same bits per row for
        # every row count, so the rotation always sees the whole swarm.
        self.row_blocks = False

    def _centre(self) -> float:
        lo, hi = self.domain
        return (lo + hi) / 2.0

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        p = self._validated(positions)
        if p.shape[1] != self.rotation.shape[0]:
            raise InvalidProblemError(
                f"rotation is {self.rotation.shape[0]}-dimensional but "
                f"positions have dimension {p.shape[1]}"
            )
        c = self._centre()
        return self.inner.evaluate((p - c) @ self.rotation.T + c)

    def profile(self) -> EvalProfile:
        prof = self.inner.profile()
        d = self.rotation.shape[0]
        # The rotation is a d x d matvec per particle: ~2d flops/element.
        return EvalProfile(
            flops_per_elem=prof.flops_per_elem + 2.0 * d,
            sfu_per_elem=prof.sfu_per_elem,
            reduction_flops_per_elem=prof.reduction_flops_per_elem,
        )

    def true_minimum_value(self, dim: int) -> float:
        return self.inner.true_minimum_value(dim)

    def true_minimum_position(self, dim: int) -> np.ndarray:
        c = self._centre()
        x_star = self.inner.true_minimum_position(dim)
        return c + self.rotation.T @ (x_star - c)

    def reference_value(self, dim: int) -> float:
        return self.inner.reference_value(dim)
