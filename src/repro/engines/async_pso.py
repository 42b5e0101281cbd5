"""Asynchronous PSO (library extension, after the paper's Section 5.1).

The paper's related work contrasts *synchronous* PSO — every particle waits
for the whole swarm's evaluation before the next move — with the
*asynchronous* variants (Koh et al., Venter & Sobieszczanski-Sobieski) that
let particles move as soon as their own evaluation lands, consuming the
freshest global best available.  Async PSO typically needs fewer iterations
because information propagates within an iteration, at the cost of a less
regular kernel structure.

This engine implements the canonical *chunked* asynchronous schedule on the
simulated GPU: the swarm is processed in ``n_chunks`` blocks per iteration;
each block is evaluated, claims pbest/gbest, and moves — so later blocks of
the same iteration already exploit earlier blocks' discoveries.  With
``n_chunks=1`` it degenerates to exactly the synchronous FastPSO schedule
and matches it bitwise (pinned by the tests).

Timing: each chunk launches the same kernel profiles as FastPSO over
``n/C`` elements, so an iteration moves the same bytes but pays ``C`` times
the per-launch overheads and ``C`` gbest reductions — faithfully showing
why the paper's fully synchronous element-wise design is the *throughput*
winner even where async wins on iteration count.

The schedule is this engine's own override of the shared iteration body
(:meth:`~repro.core.engine.Engine._eager_iteration`), built from the same
pieces: the kernel specs and ``launcher.launch`` of FastPSO's cost profile,
:func:`~repro.core.swarm.gbest_scan` and
:func:`~repro.core.swarm.velocity_update` on row views.  It never replays.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import (
    SwarmState,
    draw_weights,
    gbest_scan,
    position_update,
    velocity_update,
)
from repro.engines.gpu_elementwise import FastPSOEngine
from repro.errors import InvalidParameterError
from repro.gpusim.rng import ParallelRNG

__all__ = ["AsyncFastPSOEngine"]


class AsyncFastPSOEngine(FastPSOEngine):
    """Chunked asynchronous element-wise PSO on the simulated GPU."""

    #: A replayed iteration is the synchronous evaluate / pbest / gbest /
    #: swarm body (:mod:`repro.gpusim.graph`); the chunked schedule
    #: interleaves them, so every run executes eagerly.
    supports_graph = False

    def __init__(self, *args, n_chunks: int = 4, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if n_chunks < 1:
            raise InvalidParameterError(f"n_chunks must be >= 1, got {n_chunks}")
        if self.backend != "global":
            raise InvalidParameterError(
                "the async schedule is implemented for the global backend"
            )
        if self.fuse_update:
            raise InvalidParameterError(
                "the async schedule launches separate velocity and position "
                "kernels per chunk; fuse_update is not available"
            )
        self.n_chunks = n_chunks
        # fastpso[-nocache][-fp16] -> fastpso-async{n}[-nocache][-fp16]
        self.name = self.name.replace(
            "fastpso", f"fastpso-async{n_chunks}", 1
        )

    # -- helpers --------------------------------------------------------------
    def _chunk_slices(self, n: int):
        """Contiguous chunk ranges; sizes differ by at most one."""
        chunks = min(self.n_chunks, n)
        base, extra = divmod(n, chunks)
        start = 0
        for i in range(chunks):
            size = base + (1 if i < extra else 0)
            yield slice(start, start + size)
            start += size

    def _launch_chunk(self, key: str, n_elems: int) -> None:
        """Launch one chunk kernel after its numerics ran on a view."""
        self.ctx.launcher.launch(
            self._kernels[key], n_elems, config=self._cfg(key, n_elems)
        )

    # -- the chunked body -----------------------------------------------------
    def _eager_iteration(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
    ) -> None:
        """The chunked schedule in place of the synchronous body: one weight
        draw, then evaluate / pbest / gbest / move per chunk.  Everything is
        charged to the swarm section, where the schedule folds evaluation
        and best-keeping."""
        params = self._scheduled_params(params)
        n, d = state.n_particles, state.dim
        vbounds = self._velocity_clip(problem, params)
        # One pair of weight matrices per iteration, drawn up front — the
        # same Philox consumption as the synchronous engine, which is what
        # makes the n_chunks=1 schedule bitwise identical to FastPSO.
        with self.clock.section("swarm"), self._kernel("swarm"):
            with self._kernel("weights_rng"):
                l_mat, g_mat = draw_weights(
                    rng, n, d, out=self._weight_buffers(n, d, self.storage_dtype)
                )
            for chunk in self._chunk_slices(n):
                self._process_chunk(
                    problem, params, state, chunk, l_mat, g_mat, vbounds
                )

    def _process_chunk(
        self, problem, params, state, chunk, l_mat, g_mat, vbounds
    ) -> None:
        n_chunk = chunk.stop - chunk.start
        d = state.dim

        # 1. evaluate the chunk at its current positions
        values = problem.evaluator.evaluate(state.positions[chunk])
        if "evaluate_particle" in self._kernels:
            # Thread-per-particle objective, priced as FastPSO prices it.
            self._launch_chunk("evaluate_particle", n_chunk)
        else:
            self._launch_chunk("evaluate", n_chunk * d)

        # 2. chunk-local pbest (strict improvement, on views)
        pbest_view = state.pbest_values[chunk]
        mask = values < pbest_view
        pbest_view[mask] = values[mask]
        state.pbest_positions[chunk][mask] = state.positions[chunk][mask]
        self._launch_chunk("pbest", n_chunk)
        self._charge_pbest_copy(int(np.count_nonzero(mask)), d)

        # 3. gbest refresh — the asynchronous point: later chunks of this
        #    iteration immediately see this chunk's discoveries.
        with self._kernel("gbest"):
            gbest_scan(state)

        # 4. move the chunk with the freshest gbest
        scratch = self._vel_scratch(state.n_particles, d, self.storage_dtype)
        if scratch is not None:
            scratch = (scratch[0][:n_chunk], scratch[1][:n_chunk])
        velocity_update(
            state.velocities[chunk],
            state.positions[chunk],
            state.pbest_positions[chunk],
            state.gbest_position,
            l_mat[chunk],
            g_mat[chunk],
            params,
            vbounds,
            out=state.velocities[chunk],
            scratch=scratch,
        )
        self._launch_chunk("velocity", n_chunk * d)
        position_update(
            state.positions[chunk], state.velocities[chunk], problem, params
        )
        self._launch_chunk("position", n_chunk * d)
