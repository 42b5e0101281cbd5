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
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.swarm import SwarmState, position_update, velocity_update
from repro.engines.gpu_elementwise import FastPSOEngine
from repro.errors import InvalidParameterError
from repro.gpusim.kernel import Kernel
from repro.gpusim.rng import ParallelRNG

__all__ = ["AsyncFastPSOEngine"]


class AsyncFastPSOEngine(FastPSOEngine):
    """Chunked asynchronous element-wise PSO on the simulated GPU."""

    #: A replayed iteration is the synchronous evaluate / pbest / gbest /
    #: swarm numerics (:mod:`repro.gpusim.graph`); the chunked schedule
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
        self.n_chunks = n_chunks
        self.name = f"fastpso-async{n_chunks}"
        # Timing-only kernels reused across _charge calls (keyed by the
        # underlying kernel spec's identity via the kernel key).
        self._noop_kernels: dict[str, Kernel] = {}

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

    def _charge(self, kernel_key: str, n_elems: int) -> None:
        """Timing-only launch: the numerics were applied inline on a view."""
        noop = self._noop_kernels.get(kernel_key)
        if noop is None or noop.spec is not self._kernels[kernel_key].spec:
            noop = Kernel(
                self._kernels[kernel_key].spec, semantics=lambda: None
            )
            self._noop_kernels[kernel_key] = noop
        self.ctx.launcher.launch(
            noop, n_elems, config=self._cfg(kernel_key, n_elems)
        )

    # -- step hooks -----------------------------------------------------------
    # The async schedule folds evaluation and best-keeping into the swarm
    # step; the framework's separate steps become no-ops so a particle is
    # never evaluated twice per iteration.
    def _evaluate(self, problem: Problem, state: SwarmState) -> np.ndarray:
        return np.asarray(state.pbest_values)

    def _update_pbest(self, state: SwarmState, values: np.ndarray) -> None:
        return None

    def _update_gbest(self, state: SwarmState) -> None:
        return None

    def _update_swarm(
        self,
        problem: Problem,
        params: PSOParams,
        state: SwarmState,
        rng: ParallelRNG,
    ) -> None:
        params = self._scheduled_params(params)
        n, d = state.n_particles, state.dim
        vbounds = self._current_velocity_bounds(problem, params)
        alloc = self.ctx.allocator
        # One pair of weight matrices per iteration, drawn up front — the
        # same Philox consumption as the synchronous engine, which is what
        # makes the n_chunks=1 schedule bitwise identical to FastPSO.
        l_buf = alloc.alloc_like((n, d), self.storage_dtype)
        g_buf = alloc.alloc_like((n, d), self.storage_dtype)
        try:
            l_mat, g_mat = self.ctx.launcher.launch(
                self._kernels["weights_rng"],
                2 * n * d,
                rng,
                n,
                d,
                out=self._weight_buffers(n, d, self.storage_dtype),
                config=self._cfg("weights_rng", 2 * n * d),
            )
            for chunk in self._chunk_slices(n):
                self._process_chunk(
                    problem, params, state, chunk, l_mat, g_mat, vbounds
                )
        finally:
            alloc.free(l_buf)
            alloc.free(g_buf)

    def _process_chunk(
        self, problem, params, state, chunk, l_mat, g_mat, vbounds
    ) -> None:
        n_chunk = chunk.stop - chunk.start
        d = state.dim

        # 1. evaluate the chunk at its current positions
        values = self.ctx.launcher.launch(
            self._kernels["evaluate"],
            n_chunk * d,
            state.positions[chunk],
            config=self._cfg("evaluate", n_chunk * d),
        )

        # 2. chunk-local pbest (strict improvement, on views)
        pbest_view = state.pbest_values[chunk]
        mask = values < pbest_view
        pbest_view[mask] = values[mask]
        state.pbest_positions[chunk][mask] = state.positions[chunk][mask]
        self._charge("pbest", n_chunk)
        improved = int(np.count_nonzero(mask))
        if improved:
            self._charge("pbest_copy", improved * d)

        # 3. gbest refresh — the asynchronous point: later chunks of this
        #    iteration immediately see this chunk's discoveries.
        idx, val = self.ctx.reducer.argmin(state.pbest_values)
        if val < state.gbest_value:
            state.gbest_value = val
            state.gbest_index = idx
            state.gbest_position = state.pbest_positions[idx].copy()

        # 4. move the chunk with the freshest gbest
        scratch = self._vel_scratch(state.n_particles, d, self.storage_dtype)
        if scratch is not None:
            n_chunk_rows = chunk.stop - chunk.start
            scratch = (scratch[0][:n_chunk_rows], scratch[1][:n_chunk_rows])
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
        self._charge("velocity", n_chunk * d)
        position_update(
            state.positions[chunk], state.velocities[chunk], problem, params
        )
        self._charge("position", n_chunk * d)
