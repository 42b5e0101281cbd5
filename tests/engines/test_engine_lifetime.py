"""What a finished engine holds: host scratch it never reads, and whether
it waits for the cyclic collector."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.core.workspace import Workspace
from repro.engines import make_engine


class _RecordingWorkspace(Workspace):
    __slots__ = ("names",)

    def __init__(self) -> None:
        super().__init__()
        self.names: set[str] = set()

    def array(self, name, shape, dtype=np.float32):
        self.names.add(name)
        return super().array(name, shape, dtype)


def _run(engine, max_iter=12):
    return engine.optimize(
        Problem.from_benchmark("rastrigin", 8),
        n_particles=32,
        max_iter=max_iter,
        params=replace(PAPER_DEFAULTS, seed=5),
    )


@pytest.mark.parametrize(
    "name, pulls",
    [("fastpso", True), ("fastpso-shared", True), ("fastpso-tc", False)],
)
def test_pull_scratch_only_where_the_velocity_kernel_reads_it(name, pulls):
    """The tensor-core kernel's ``multiply_add`` never reads the pull-term
    scratch, so a ``fastpso-tc`` run never holds it."""
    engine = make_engine(name, graph=True)
    engine._ws = ws = _RecordingWorkspace()
    _run(engine)
    assert {"l_weights", "g_weights"} <= ws.names
    assert ({"vel_pull_1", "vel_pull_2"} <= ws.names) is pulls


@pytest.mark.parametrize(
    "name",
    [
        "fastpso",
        "fastpso-shared",
        "fastpso-tc",
        "fastpso-fp16",
        "fastpso-fused",
        "gpu-pso",
        "fastpso-seq",
    ],
)
def test_finished_engine_is_freed_by_refcount(name):
    """No kernel semantics closes over its engine, so dropping the last
    reference frees a finished engine (and its device buffers) at once,
    without a cyclic-collector pass."""
    gc.collect()
    gc.disable()
    try:
        engine = make_engine(name)
        _run(engine, max_iter=8)
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        gc.enable()
