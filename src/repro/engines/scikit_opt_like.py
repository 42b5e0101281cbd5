"""``scikit-opt``: model of the scikit-opt ``PSO`` optimizer.

The paper's second CPU baseline (Guo's scikit-opt).  Behavioural
signatures reproduced here:

* **per-particle evaluation** — scikit-opt's ``func_transformer`` wraps the
  objective in a Python-level loop over particles, so evaluation cost is
  dominated by interpreter calls and scales with the objective's NumPy op
  count per particle (Griewank ~2x Sphere — Table 1's 172 s vs 89 s);
* **position clipping** — scikit-opt clips positions to ``[lb, ub]`` every
  iteration; combined with unclamped velocities the swarm pins to the box
  faces, which is *worse* than free divergence (Table 2's Sphere error 2483
  vs pyswarms' 1032: clipped corners score ~d*hi^2, diverged pbest keeps an
  early random-sampling best);
* **stagnation early stop (opt-in)** — scikit-opt supports precision-based
  early termination; set :attr:`early_stop_patience` to enable it.  On
  Easom's flat plateau every iteration stalls and the run ends after
  ``patience`` iterations — the likely mechanism behind Table 1's
  anomalously fast 12.77 s scikit-opt Easom row (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.core.engine import EngineRun
from repro.core.parameters import PAPER_DEFAULTS, PSOParams
from repro.core.problem import Problem
from repro.core.stopping import AnyOf, StallStop, StopCriterion
from repro.engines.lib_base import LibraryEngineBase

__all__ = ["ScikitOptLikeEngine"]


class ScikitOptLikeEngine(LibraryEngineBase):
    """Interpreted-loop library baseline (``scikit-opt``)."""

    name = "scikit-opt"
    is_gpu = False
    eval_strategy = "per_particle"
    clip_positions = True
    update_ufunc_ops = 6
    overhead_ufunc_ops = 2

    #: Iterations without improvement before the precision stop fires.
    #: ``None`` (the default, like scikit-opt's ``precision=None``) runs the
    #: full budget; Table 1's anomalously fast scikit-opt Easom row suggests
    #: the paper's run terminated early — set a patience to reproduce that.
    early_stop_patience: int | None = None
    #: Improvements smaller than this count as stagnation.
    early_stop_delta: float = 1.0e-12

    def start_run(
        self,
        problem: Problem,
        *,
        n_particles: int,
        max_iter: int,
        params: PSOParams = PAPER_DEFAULTS,
        stop: StopCriterion | None = None,
        record_history: bool = False,
        callback=None,
        checkpoint=None,
        restore=None,
        budget=None,
        guard=None,
    ) -> EngineRun:
        # Overriding start_run (not optimize) keeps the stepped protocol:
        # hosts that drive iterations themselves get the early stop too.
        if self.early_stop_patience is None:
            combined = stop
        else:
            stall = StallStop(
                patience=self.early_stop_patience,
                min_delta=self.early_stop_delta,
            )
            combined = stall if stop is None else AnyOf((stall, stop))
        return super().start_run(
            problem,
            n_particles=n_particles,
            max_iter=max_iter,
            params=params,
            stop=combined,
            record_history=record_history,
            callback=callback,
            checkpoint=checkpoint,
            restore=restore,
            budget=budget,
            guard=guard,
        )
