"""Multi-GPU particle-splitting engine (paper Section 3.5)."""

import numpy as np
import pytest

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.stopping import TargetValue
from repro.engines import FastPSOEngine, MultiGpuFastPSOEngine
from repro.errors import InvalidParameterError


@pytest.fixture
def problem():
    return Problem.from_benchmark("griewank", 32)


@pytest.fixture
def params():
    return PSOParams(seed=11)


class TestConstruction:
    def test_name_encodes_device_count(self):
        assert MultiGpuFastPSOEngine(n_devices=4).name == "fastpso-mgpu4"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MultiGpuFastPSOEngine(n_devices=0)
        with pytest.raises(InvalidParameterError):
            MultiGpuFastPSOEngine(exchange_interval=0)

    def test_workers_have_distinct_device_indices(self):
        engine = MultiGpuFastPSOEngine(n_devices=3)
        assert [w.ctx.device_index for w in engine.workers] == [0, 1, 2]


class TestSingleDeviceDegenerate:
    def test_matches_single_gpu_engine_exactly(self, problem, params):
        """One device + particle splitting == plain FastPSO."""
        single = FastPSOEngine().optimize(
            problem, n_particles=256, max_iter=40, params=params
        )
        multi = MultiGpuFastPSOEngine(n_devices=1).optimize(
            problem, n_particles=256, max_iter=40, params=params
        )
        assert multi.best_value == single.best_value
        np.testing.assert_array_equal(
            multi.best_position, single.best_position
        )


class TestMultiDevice:
    def test_runs_and_optimises(self, problem, params):
        r = MultiGpuFastPSOEngine(n_devices=4, exchange_interval=10).optimize(
            problem, n_particles=256, max_iter=60, params=params
        )
        assert np.isfinite(r.best_value)
        assert r.iterations == 60
        # random init on griewank d=32 scores in the hundreds; the search
        # must have made clear progress.
        assert r.best_value < 100

    def test_global_best_is_best_of_subswarms(self, problem, params):
        engine = MultiGpuFastPSOEngine(n_devices=2, exchange_interval=5)
        r = engine.optimize(
            problem, n_particles=128, max_iter=30, params=params
        )
        # after the final exchange every device holds the global winner
        value = problem.evaluator.evaluate(
            r.best_position[np.newaxis, :]
        )[0]
        assert value == pytest.approx(r.best_value, rel=1e-5)

    def test_subswarms_use_disjoint_streams(self, problem, params):
        engine = MultiGpuFastPSOEngine(n_devices=2)
        r = engine.optimize(
            problem, n_particles=64, max_iter=5, params=params
        )
        a, b = engine.workers
        # distinct streams -> different sub-swarm trajectories
        assert r.n_particles == 64

    def test_large_swarm_runs_faster_on_more_devices(self, params):
        problem = Problem.from_benchmark("sphere", 128)
        t = {}
        for nd in (1, 4):
            engine = MultiGpuFastPSOEngine(n_devices=nd, exchange_interval=50)
            r = engine.optimize(
                problem, n_particles=100_000, max_iter=3, params=params
            )
            t[nd] = r.iteration_seconds
        assert t[4] < t[1] / 2  # real scaling once devices are saturated

    def test_history_records_global_best(self, problem, params):
        r = MultiGpuFastPSOEngine(n_devices=2, exchange_interval=5).optimize(
            problem,
            n_particles=64,
            max_iter=20,
            params=params,
            record_history=True,
        )
        assert len(r.history) == 20

    def test_early_stop_respected(self, problem, params):
        r = MultiGpuFastPSOEngine(n_devices=2).optimize(
            problem,
            n_particles=64,
            max_iter=100,
            params=params,
            stop=TargetValue(1e9),
        )
        assert r.iterations == 1

    def test_too_few_particles_rejected(self, problem, params):
        with pytest.raises(InvalidParameterError):
            MultiGpuFastPSOEngine(n_devices=8).optimize(
                problem, n_particles=4, max_iter=2, params=params
            )

    def test_running_fleet_cannot_be_captured(self, problem, params):
        from repro.errors import CheckpointError
        from repro.reliability.snapshot import capture_live_run

        run = MultiGpuFastPSOEngine(n_devices=2).start_run(
            problem, n_particles=16, max_iter=4, params=params
        )
        run.step(0)
        with pytest.raises(CheckpointError, match="multi-GPU"):
            capture_live_run(run)

    def test_exchange_costs_accounted(self, problem, params):
        frequent = MultiGpuFastPSOEngine(n_devices=4, exchange_interval=1)
        rare = MultiGpuFastPSOEngine(n_devices=4, exchange_interval=100)
        t_frequent = frequent.optimize(
            problem, n_particles=64, max_iter=50, params=params
        ).elapsed_seconds
        t_rare = rare.optimize(
            problem, n_particles=64, max_iter=50, params=params
        ).elapsed_seconds
        assert t_frequent > t_rare


# -- cross-commit pins -------------------------------------------------------
#
# Every test above compares a multi-device run with itself or with loose
# bounds.  These pin whole results of 2- and 3-device fleets: the full
# ``result_to_dict`` (history included), the shard each callback call
# received and the guard's interventions, stored as JSON in
# ``tests/data/mgpu_pins.json``.  A refactor of the fleet's run loop that
# moves one exchange, guard call or history record fails here.
#
# Regenerate (only for an intended behaviour change) with
# ``PYTHONPATH=src python tests/engines/test_multi_gpu_engine.py``.

import json
import sys
from pathlib import Path

from repro.core.budget import Budget
from repro.core.stopping import StallStop
from repro.io import result_to_dict
from repro.reliability import SwarmHealthGuard

PINS = Path(__file__).resolve().parents[1] / "data" / "mgpu_pins.json"

#: 67 particles split unevenly: 34/33 over two devices, 23/22/22 over three.
PIN_PARTICLES = 67
PIN_ITERS = 30

#: case -> (n_devices, exchange_interval, graph, run options).
PIN_CASES = {
    "d2-x1-graph": (2, 1, True, {}),
    "d2-x7-eager": (2, 7, False, {}),
    "d3-x7-graph": (3, 7, True, {}),
    "d3-x50-graph": (3, 50, True, {}),
    "d3-x50-eager": (3, 50, False, {}),
    "d2-x7-target": (2, 7, True, {"stop": "target"}),
    "d3-x1-stall": (3, 1, True, {"stop": "stall"}),
    "d2-x7-budget4": (2, 7, True, {"budget": 4}),
    "d3-x7-guard": (3, 7, True, {"guard": True}),
    "d2-x7-callback5": (2, 7, True, {"callback_at": 5}),
    "d3-x7-callback-last": (3, 7, False, {"callback_at": PIN_ITERS - 1}),
}


def pin_payload(name: str) -> dict:
    n_devices, interval, graph, options = PIN_CASES[name]
    engine = MultiGpuFastPSOEngine(
        n_devices=n_devices, exchange_interval=interval, graph=graph
    )
    calls = []
    kwargs = {}
    if options.get("stop") == "target":
        kwargs["stop"] = TargetValue(30.0)
    elif options.get("stop") == "stall":
        kwargs["stop"] = StallStop(patience=2, min_delta=1.0)
    if "budget" in options:
        kwargs["budget"] = Budget(iterations=options["budget"])
    guard = None
    if options.get("guard"):
        # A tiny velocity limit makes the guard clamp every iteration.
        guard = kwargs["guard"] = SwarmHealthGuard(velocity_factor=0.01)
    if "callback_at" in options:
        stop_at = options["callback_at"]

        def callback(t, state):
            calls.append([t, state.n_particles, repr(state.gbest_value)])
            return t == stop_at

        kwargs["callback"] = callback
    result = engine.optimize(
        Problem.from_benchmark("rastrigin", 5),
        n_particles=PIN_PARTICLES,
        max_iter=PIN_ITERS,
        params=PSOParams(seed=23),
        record_history=True,
        **kwargs,
    )
    info = engine.graph_info
    return {
        "result": result_to_dict(result),
        "callback": calls,
        "guard": guard.to_rows() if guard is not None else None,
        "graph": [info["mode"], info["eager_reason"], info["captured_at"]],
    }


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_multi_device_run_is_pinned(name):
    stored = json.loads(PINS.read_text())[name]
    assert _canonical(pin_payload(name)) == _canonical(stored)


def test_pins_cover_the_stop_paths():
    """The pinned cases really stop early, exhaust a budget and guard."""
    pins = json.loads(PINS.read_text())
    for name in ("d2-x7-target", "d3-x1-stall", "d2-x7-callback5"):
        assert pins[name]["result"]["iterations"] < PIN_ITERS, name
    assert pins["d2-x7-budget4"]["result"]["status"] == "budget_exhausted"
    assert pins["d2-x7-budget4"]["result"]["iterations"] == 4
    assert pins["d3-x7-guard"]["guard"]
    assert pins["d3-x7-callback-last"]["callback"][-1][0] == PIN_ITERS - 1
    assert pins["d3-x50-graph"]["graph"][0] == "graph"


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(PIN_CASES)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for case in names:
        pins[case] = pin_payload(case)
    PINS.write_text(_canonical(pins) + "\n")
