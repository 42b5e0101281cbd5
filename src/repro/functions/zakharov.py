"""The Zakharov function.

.. math::
   f(x) = \\sum x_i^2 + \\Big(\\sum 0.5\\,i\\,x_i\\Big)^2
          + \\Big(\\sum 0.5\\,i\\,x_i\\Big)^4

Unimodal but ill-conditioned (the weighted-sum terms couple all
coordinates); global minimum 0 at the origin.  Domain ``(-5, 10)``.
"""

from __future__ import annotations

import numpy as np

from repro.functions.base import BenchmarkFunction, EvalProfile, register

__all__ = ["Zakharov"]


@register
class Zakharov(BenchmarkFunction):
    name = "zakharov"
    domain = (-5.0, 10.0)
    # Its BLAS matrix-vector product gives a row other bits on other row
    # counts, and it builds no (n, d) temporary beyond the float64 copy
    # (blocked calls measured slower).
    row_blocks = False

    def evaluate(self, positions: np.ndarray) -> np.ndarray:
        p = self._validated(positions)
        d = p.shape[1]
        weights = 0.5 * np.arange(1, d + 1, dtype=np.float64)
        quad = np.einsum("ij,ij->i", p, p)
        lin = p @ weights
        return quad + lin**2 + lin**4

    def profile(self) -> EvalProfile:
        return EvalProfile(flops_per_elem=3.0, reduction_flops_per_elem=4.0)
