"""Cross-commit pins for the eager iteration's launch order and accounting.

An eager iteration reaches each kernel through a fault hook and a clock
charge.  These pins hold, per engine configuration, the exact sequence a
three-iteration ``graph=False`` run produces:

* every fault-injector ``on_launch`` call as ``(ordinal, kernel, section,
  clock.now)`` of every device clock at the hook;
* the launcher's per-launch records (kernel, size, geometry, cost, section);
* the clock's full charge trace from reset to result, dynamic marks
  included, and its section totals.

The injector's plan is empty, so it only observes.  The digests live in
``tests/data/launch_order_pins.json``; a refactor of the launch path that
moves one hook, charge or section fails here even when every result stays
self-consistent.

Regenerate stored digests (only for an intended behaviour change) with
``PYTHONPATH=src python tests/gpusim/test_launch_order.py [CASE ...]``;
with no case names every entry is rewritten.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.engines import make_engine
from repro.reliability import FaultInjector

PINS = Path(__file__).resolve().parents[1] / "data" / "launch_order_pins.json"

_GPU = {"record_launches": True}
_EAGER = {"graph": False, **_GPU}

#: case name -> (registry name, constructor options).
CASES = {
    "fastpso": ("fastpso", _EAGER),
    "fastpso-shared": ("fastpso-shared", _EAGER),
    "fastpso-tensorcore": ("fastpso-tensorcore", _EAGER),
    "fastpso-fp16": ("fastpso-fp16", _EAGER),
    "fastpso-fused": ("fastpso-fused", _EAGER),
    "fastpso-nocache": ("fastpso-nocache", _EAGER),
    "fastpso-async4": ("fastpso-async", _EAGER),
    "fastpso-mgpu2": (
        "fastpso-mgpu", {**_EAGER, "n_devices": 2, "exchange_interval": 2}
    ),
    "gpu-pso": ("gpu-pso", _GPU),
    "hgpu-pso": ("hgpu-pso", _GPU),
    "fastpso-seq": ("fastpso-seq", {"graph": False}),
    "pyswarms": ("pyswarms", {}),
}

#: 300 particles: the gbest reduction's first pass spans two blocks.
N_PARTICLES = 300
ITERS = 3


class _Recorder(FaultInjector):
    """An injector with an empty plan that logs every launch hook."""

    def __init__(self, clocks) -> None:
        super().__init__()
        self.clocks = clocks
        self.log: list = []

    def on_launch(self, kernel_name: str) -> float:
        stall = super().on_launch(kernel_name)
        self.log.append(
            [
                self._launches,
                kernel_name,
                [[c.current_section, repr(c.now)] for c in self.clocks],
            ]
        )
        return stall


def _trace_from_reset(clock) -> None:
    """Make *clock* start tracing whenever the run resets it."""
    reset = clock.reset

    def reset_and_trace() -> None:
        reset()
        clock.begin_trace()

    clock.reset = reset_and_trace


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def case_payload(name: str) -> dict:
    registry_name, options = CASES[name]
    engine = make_engine(registry_name, **options)
    workers = getattr(engine, "workers", None) or [engine]
    clocks = [w.clock for w in workers]
    for clock in clocks:
        _trace_from_reset(clock)
    recorder = _Recorder(clocks)
    engine.attach_fault_injector(recorder)
    result = engine.optimize(
        Problem.from_benchmark("rastrigin", 4),
        n_particles=N_PARTICLES,
        max_iter=ITERS,
        params=PSOParams(seed=11),
    )
    records = []
    for w in workers:
        ctx = getattr(w, "ctx", None)
        if ctx is None:
            continue
        records.append(
            [
                [
                    r.kernel_name,
                    r.n_elems,
                    r.config.grid_blocks,
                    r.config.threads_per_block,
                    repr(r.cost.seconds),
                    r.section,
                ]
                for r in ctx.launcher.records
            ]
        )
    return {
        "on_launch": recorder.log,
        "records": records,
        "trace": [
            [[label, repr(s), dyn] for label, s, dyn in c.end_trace()]
            for c in clocks
        ],
        "sections": [
            {k: repr(v) for k, v in c.section_totals.items()} for c in clocks
        ],
        "result": [repr(result.best_value), repr(result.elapsed_seconds)],
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_eager_launch_order_is_pinned(name):
    stored = json.loads(PINS.read_text())
    payload = case_payload(name)
    assert payload["result"] and (
        payload["on_launch"] or not payload["records"]
    )
    assert _digest(payload) == stored[name], (
        f"{name}: eager launch order or accounting drifted from the pin"
    )


def test_gpu_cases_observe_every_launch():
    """The pins only guard the hook order if the hooks really fire."""
    payload = case_payload("fastpso")
    kernels = [entry[1] for entry in payload["on_launch"]]
    assert kernels[0] == "swarm_init_rng"
    assert kernels.count("reduce_argmin_pass1") == ITERS
    assert len(kernels) == len(payload["records"][0]) - sum(
        1 for r in payload["records"][0] if r[0] == "pbest_position_copy"
    )


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for case in names:
        pins[case] = _digest(case_payload(case))
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(names)} entr{'y' if len(names) == 1 else 'ies'} to {PINS}")
