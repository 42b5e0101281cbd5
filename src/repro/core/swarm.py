"""Swarm state and the canonical PSO update numerics.

Every engine — GPU element-wise, GPU thread-per-particle, sequential C++
model, OpenMP model — runs *these* array semantics, so two engines with the
same seed produce bit-identical trajectories (the cross-engine equivalence
property the test suite asserts).  What differs between engines is the cost
model and the kernel decomposition, exactly as in the paper, where
fastpso/fastpso-seq/fastpso-omp are ports of one algorithm.

Arithmetic is float32 throughout, matching the CUDA implementation; the
tensor-core backend substitutes :func:`repro.gpusim.tensorcore.
fragment_multiply_add` for the two weighted products and therefore differs
by fp16 rounding only.

A note on Eq. (1): the paper writes the attractors as ``pbest_i . e`` and
``gbest . e`` while defining ``pbest_i``/``gbest`` as best *errors*.  Taken
literally that would steer particles toward the scalar error value, which
optimises nothing; like every PSO implementation the paper compares against,
we read the attractors as the best *positions* (the matrices E_l and E_g
broadcast the personal-best/global-best positions).  DESIGN.md records this
notation decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.errors import InvalidParameterError
from repro.gpusim.rng import ParallelRNG

__all__ = [
    "SwarmState",
    "draw_initial_state",
    "draw_weights",
    "velocity_update",
    "position_update",
    "pbest_update",
    "gbest_scan",
]


@dataclass
class SwarmState:
    """All per-swarm arrays of Algorithm 1.

    ``positions``/``velocities``/``pbest_positions`` are ``(n, d)`` float32;
    ``pbest_values`` is ``(n,)`` float64 (fitness is accumulated in double,
    as the evaluation kernels do for the row reductions).
    """

    positions: np.ndarray
    velocities: np.ndarray
    pbest_values: np.ndarray
    pbest_positions: np.ndarray
    gbest_value: float = np.inf
    gbest_index: int = -1
    gbest_position: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def copy(self) -> "SwarmState":
        return SwarmState(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            pbest_values=self.pbest_values.copy(),
            pbest_positions=self.pbest_positions.copy(),
            gbest_value=self.gbest_value,
            gbest_index=self.gbest_index,
            gbest_position=self.gbest_position.copy(),
        )


#: Initial velocities are drawn uniformly on +/- this fraction of the
#: domain width — small enough not to eject particles immediately, the
#: common convention for random velocity initialisation.
INIT_VELOCITY_FRACTION = 0.1


def draw_initial_state(
    problem: Problem, n_particles: int, rng: ParallelRNG
) -> SwarmState:
    """Random initial swarm (Algorithm 1 lines 1-3).

    Draw order is part of the cross-engine contract: positions first
    (row-major ``n x d`` uniforms), then velocities.  pbest values start at
    +inf so the first evaluation always claims them.
    """
    if n_particles <= 0:
        raise InvalidParameterError(
            f"need at least one particle, got {n_particles}"
        )
    n, d = n_particles, problem.dim
    lo = problem.lower_bounds.astype(np.float32)
    width = problem.domain_width.astype(np.float32)

    unit_p = rng.uniform((n, d), 0.0, 1.0, dtype=np.float32)
    positions = lo + unit_p * width

    unit_v = rng.uniform((n, d), -1.0, 1.0, dtype=np.float32)
    velocities = (INIT_VELOCITY_FRACTION * width) * unit_v

    return SwarmState(
        positions=positions,
        velocities=velocities,
        pbest_values=np.full(n, np.inf, dtype=np.float64),
        pbest_positions=positions.copy(),
        gbest_position=np.zeros(d, dtype=np.float32),
    )


def draw_weights(
    rng: ParallelRNG,
    n: int,
    d: int,
    dtype=np.float32,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-iteration random weight matrices L then G of Eq. (4).

    The stream consumption is dtype-independent (draws happen at 32-bit
    word granularity), so fp16 runs consume the same Philox blocks as fp32
    runs — only the stored rounding differs.

    When *out* (a pair of ``(n, d)`` arrays, whose dtype then wins over
    *dtype*) is given, the matrices are written in place — the engines'
    workspace arena uses this to eliminate the two fresh allocations per
    iteration.  The values and stream consumption are identical either way;
    in particular a non-float32 *out* is still staged through a float32
    draw so the fp16 double rounding of the fresh path is preserved.
    """
    if out is None:
        l_mat = rng.uniform((n, d), 0.0, 1.0, dtype=np.float32).astype(dtype)
        g_mat = rng.uniform((n, d), 0.0, 1.0, dtype=np.float32).astype(dtype)
        return l_mat, g_mat
    l_mat, g_mat = out
    if l_mat.dtype == np.float32 and g_mat.dtype == np.float32:
        rng.uniform((n, d), 0.0, 1.0, out=l_mat)
        rng.uniform((n, d), 0.0, 1.0, out=g_mat)
    else:
        np.copyto(l_mat, rng.uniform((n, d), 0.0, 1.0, dtype=np.float32))
        np.copyto(g_mat, rng.uniform((n, d), 0.0, 1.0, dtype=np.float32))
    return l_mat, g_mat


def velocity_update(
    velocities: np.ndarray,
    positions: np.ndarray,
    pbest_positions: np.ndarray,
    social_positions: np.ndarray,
    l_weights: np.ndarray,
    g_weights: np.ndarray,
    params: PSOParams,
    velocity_bounds: tuple[np.ndarray, np.ndarray]
    | tuple[np.float32, np.float32]
    | None,
    *,
    out: np.ndarray | None = None,
    multiply_add=None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Eq. (4): ``V' = w V + c1 L (E_l - P) + c2 G (E_g - P)``, clamped.

    ``social_positions`` is the gbest row (global topology, broadcast) or an
    ``(n, d)`` per-particle matrix (ring topology).  ``multiply_add``
    optionally replaces the two Hadamard products — the tensor-core backend
    passes :func:`repro.gpusim.tensorcore.fragment_multiply_add` here.  It
    is called as ``multiply_add(weights, pull, out=pull)`` and must write
    the float32 product into *out*.
    All arithmetic stays in float32.

    *velocity_bounds* is Eq. (5)'s ``(lo, hi)`` clamp, cast to float32
    before the clip: ``(d,)`` vectors, or two float32 scalars when every
    dimension has the same bound (:meth:`Engine._velocity_clip
    <repro.core.engine.Engine._velocity_clip>` decides from the problem's
    ``uniform_width``).  The scalars clip each element to the same bits
    the vectors would, without NumPy's per-row broadcast loop.

    *scratch* — a pair of ``(n, d)`` float32 buffers — routes the pull
    terms through preallocated storage instead of four fresh temporaries.
    The in-place expression performs exactly the same IEEE operations in
    the same order, so results are bit-identical; the fast path is only
    taken when every operand is float32 and ``multiply_add`` is unset
    (mixed-precision promotion would otherwise change intermediate
    rounding).

    This is the one Python statement of the Eq. (4) numerics: every
    engine's velocity kernel runs it, and so does each member of a fused
    multi-swarm round.  The scratch fast path's operation sequence is a
    compatibility contract: ``gpusim/_fastpath.c`` mirrors it op-for-op
    (same order, same ``-ffp-contract=off`` no-FMA arithmetic) so the
    native iteration tier stays bit-identical.  Changing the order or
    grouping here requires the matching change in ``fastpath_step`` — the
    known-answer self-test and the promotion gate will otherwise demote
    every run to the Python replay tier.
    """
    if out is None:
        out = np.empty_like(velocities)
    w, c1, c2 = map(np.float32, (params.inertia, params.cognitive, params.social))
    if (
        scratch is not None
        and multiply_add is None
        and velocities.dtype == np.float32
        and positions.dtype == np.float32
        and pbest_positions.dtype == np.float32
        and social_positions.dtype == np.float32
        and l_weights.dtype == np.float32
        and g_weights.dtype == np.float32
        and out.dtype == np.float32
    ):
        s1, s2 = scratch
        np.subtract(pbest_positions, positions, out=s1)  # cog_pull
        np.multiply(l_weights, s1, out=s1)
        np.multiply(s1, c1, out=s1)  # c1 * (L * cog_pull)
        np.subtract(social_positions, positions, out=s2)  # soc_pull
        np.multiply(g_weights, s2, out=s2)
        np.multiply(s2, c2, out=s2)  # c2 * (G * soc_pull)
        np.multiply(velocities, w, out=out)
        np.add(out, s1, out=out)
        np.add(out, s2, out=out)
    else:
        cog_pull = pbest_positions - positions
        soc_pull = social_positions - positions
        if multiply_add is None:
            np.multiply(velocities, w, out=out)
            out += c1 * (l_weights * cog_pull)
            out += c2 * (g_weights * soc_pull)
        else:
            # Each product lands in its own pull temporary; the float32 op
            # order is that of ``w * V + c1 * (L * cog) + c2 * (G * soc)``.
            multiply_add(l_weights, cog_pull, out=cog_pull)
            multiply_add(g_weights, soc_pull, out=soc_pull)
            np.multiply(cog_pull, c1, out=cog_pull)
            np.multiply(soc_pull, c2, out=soc_pull)
            np.multiply(velocities, w, out=out)
            np.add(out, cog_pull, out=out)
            np.add(out, soc_pull, out=out)

    if velocity_bounds is not None:
        lo, hi = velocity_bounds
        lo, hi = lo.astype(np.float32, copy=False), hi.astype(np.float32, copy=False)
        np.clip(out, lo, hi, out=out)
    return out


def position_update(
    positions: np.ndarray,
    velocities: np.ndarray,
    problem: Problem,
    params: PSOParams,
) -> np.ndarray:
    """Eq. (2): ``P' = P + V'`` (optionally clipped to the domain).

    The clip runs against ``problem.position_clip``, the float32 bounds the
    problem computed once: two scalars when every dimension has the same
    bound, else ``(d,)`` vectors.  Both give the same bits.
    """
    positions += velocities
    if params.clip_positions:
        lo, hi = problem.position_clip
        np.clip(positions, lo, hi, out=positions)
    return positions


def pbest_update(
    state: SwarmState, values: np.ndarray
) -> np.ndarray:
    """Algorithm 1 lines 6-9: claim improved personal bests.

    Returns the boolean improvement mask (used by tests and by the ring
    topology).  Strict ``<`` comparison matches the paper's pseudocode, so
    ties keep the earlier best.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != state.pbest_values.shape:
        raise InvalidParameterError(
            f"fitness shape {values.shape} does not match swarm "
            f"({state.pbest_values.shape})"
        )
    mask = values < state.pbest_values
    state.pbest_values[mask] = values[mask]
    state.pbest_positions[mask] = state.positions[mask]
    return mask


def gbest_scan(state: SwarmState) -> tuple[int, float]:
    """Sequential-scan gbest update (lines 10-12); ties keep lowest index.

    The claim on every engine and tier.  The GPU engines price it as the
    two-pass parallel reduction (:mod:`repro.gpusim.reduction`), whose
    first-index tie breaking is the same order.
    """
    idx = int(np.argmin(state.pbest_values))
    val = float(state.pbest_values[idx])
    if val < state.gbest_value:
        state.gbest_value = val
        state.gbest_index = idx
        state.gbest_position = state.pbest_positions[idx].copy()
    return state.gbest_index, state.gbest_value
