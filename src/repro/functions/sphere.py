"""The Sphere function (paper problem #1).

.. math:: f(x) = \\sum_{i=1}^{d} x_i^2

Convex, separable, minimised at the origin with value 0.  The paper searches
on the domain ``(-5.12, 5.12)`` — the classic De Jong F1 setting — and uses
Sphere as the cheapest-evaluation workload, which makes it the purest
measurement of swarm-update throughput.

The value is ``np.einsum("ij,ij->i", p, p)`` over the float64 copy ``p`` of
the positions, bit for bit.  The engines' float32 position matrices
(non-empty, C-contiguous, writeable) go to the compiled ``sphere_rows``
kernel (:func:`repro.gpusim.fastpath.sphere_rows`), which reads the float32
rows directly and copies einsum's summation order; every other input, and
every run with the kernel disabled or unavailable, takes einsum itself.
"""

from __future__ import annotations

import numpy as np

from repro.functions.base import BenchmarkFunction, EvalProfile, register
from repro.gpusim import fastpath

__all__ = ["Sphere"]


@register
class Sphere(BenchmarkFunction):
    name = "sphere"
    domain = (-5.12, 5.12)

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        values = fastpath.sphere_rows(positions)
        if values is not None:
            return values
        p = self._validated(positions)
        # einsum avoids the (n, d) temporary that p**2 would materialise;
        # the compiled kernel above reproduces its summation order.
        return np.einsum("ij,ij->i", p, p)

    def profile(self) -> EvalProfile:
        # One multiply per element; the row sum is the reduction.
        return EvalProfile(flops_per_elem=1.0, sfu_per_elem=0.0)
