"""Fault taxonomy: deterministic injection into the simulated substrate."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.engines import make_engine
from repro.errors import (
    DeviceLostError,
    DeviceOutOfMemoryError,
    InvalidParameterError,
    LaunchFailedError,
    MemoryCorruptionError,
)
from repro.reliability import FAULT_KINDS, FaultInjector, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_kinds_are_the_documented_taxonomy(self):
        assert set(FAULT_KINDS) == {
            "launch_failure",
            "device_lost",
            "stall",
            "corrupt",
            "oom",
        }

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "meteor_strike"},
            {"kind": "launch_failure", "after": 0},
            {"kind": "stall"},  # stall_seconds defaults to 0: invalid
            {"kind": "corrupt", "buffer": "registers"},
            {"kind": "corrupt", "elems": 0},
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            FaultSpec(**bad)

    def test_dict_round_trip(self):
        specs = [
            FaultSpec("launch_failure", after=3),
            FaultSpec("stall", after=2, stall_seconds=1e-3),
            FaultSpec("corrupt", after=5, buffer="velocities", elems=7),
            FaultSpec("oom", after=4),
        ]
        assert [FaultSpec.from_dict(s.to_dict()) for s in specs] == specs


class TestInjectorOrdinals:
    def test_launch_failure_fires_at_exact_ordinal_once(self):
        inj = FaultInjector([FaultSpec("launch_failure", after=3)])
        inj.on_launch("k")
        inj.on_launch("k")
        with pytest.raises(LaunchFailedError, match="launch #3"):
            inj.on_launch("k")
        # One-shot: the 4th launch (and any later) succeeds.
        for _ in range(10):
            inj.on_launch("k")
        assert inj.pending == ()

    def test_device_lost_is_sticky_until_new_device(self):
        inj = FaultInjector([FaultSpec("device_lost", after=1)])
        with pytest.raises(DeviceLostError, match="injected device loss"):
            inj.on_launch("k")
        assert inj.device_lost
        with pytest.raises(DeviceLostError, match="rejected"):
            inj.on_launch("k")
        with pytest.raises(DeviceLostError, match="rejected"):
            inj.on_alloc(1024)
        inj.on_new_device()
        inj.on_launch("k")  # healthy again
        inj.on_alloc(1024)

    def test_stall_returns_simulated_seconds(self):
        inj = FaultInjector([FaultSpec("stall", after=2, stall_seconds=0.25)])
        assert inj.on_launch("k") == 0.0
        assert inj.on_launch("k") == 0.25
        assert inj.on_launch("k") == 0.0
        assert inj.stalled_seconds == 0.25

    def test_oom_fires_on_alloc_counter_not_launches(self):
        inj = FaultInjector([FaultSpec("oom", after=2)])
        for _ in range(5):
            inj.on_launch("k")  # launches never trigger an alloc fault
        inj.on_alloc(100)
        with pytest.raises(DeviceOutOfMemoryError):
            inj.on_alloc(100)

    def test_corrupt_damages_only_the_named_buffer(self):
        inj = FaultInjector(
            [FaultSpec("corrupt", after=1, buffer="velocities", elems=3)],
            seed=5,
        )
        pos = np.zeros((8, 4), dtype=np.float32)
        vel = np.zeros((8, 4), dtype=np.float32)
        inj.watch("positions", pos)
        inj.watch("velocities", vel)
        inj.on_launch("k")
        assert not np.isnan(pos).any()
        assert 1 <= int(np.isnan(vel).sum()) <= 3  # modulo may collide
        with pytest.raises(MemoryCorruptionError, match="velocities"):
            inj.check_integrity()

    def test_corrupt_indices_are_seed_deterministic(self):
        damaged = []
        for _ in range(2):
            inj = FaultInjector(
                [FaultSpec("corrupt", after=1, elems=4)], seed=9
            )
            buf = np.zeros(64, dtype=np.float32)
            inj.watch("positions", buf)
            inj.on_launch("k")
            damaged.append(np.flatnonzero(np.isnan(buf)).tolist())
        assert damaged[0] == damaged[1]

    def test_counters_persist_across_device_renewal(self):
        """Retry convergence: a replayed prefix must not re-hit a fired fault."""
        inj = FaultInjector([FaultSpec("launch_failure", after=2)])
        inj.on_launch("k")
        with pytest.raises(LaunchFailedError):
            inj.on_launch("k")
        inj.on_new_device()  # fresh engine for the retry attempt
        for _ in range(4):
            inj.on_launch("k")  # ordinals 3..6: no repeat at "the 2nd launch"


class TestEngineIntegration:
    def run(self, injector, engine_name="fastpso", iters=8):
        engine = make_engine(engine_name)
        engine.attach_fault_injector(injector)
        return engine.optimize(
            Problem.from_benchmark("sphere", 6),
            n_particles=32,
            max_iter=iters,
            params=replace(PAPER_DEFAULTS, seed=42),
        )

    def test_launch_failure_surfaces_from_optimize(self):
        with pytest.raises(LaunchFailedError, match="injected launch failure"):
            self.run(FaultInjector([FaultSpec("launch_failure", after=4)]))

    def test_oom_surfaces_from_optimize(self):
        with pytest.raises(DeviceOutOfMemoryError):
            self.run(FaultInjector([FaultSpec("oom", after=3)]))

    def test_corruption_caught_by_integrity_guard(self):
        # Velocities are never evaluated, so the end-of-iteration integrity
        # guard is always what detects the damage (NaN positions could also
        # surface earlier as an EvaluationError, depending on the ordinal).
        with pytest.raises(MemoryCorruptionError, match="integrity check"):
            self.run(
                FaultInjector(
                    [FaultSpec("corrupt", after=10, buffer="velocities")],
                    seed=3,
                )
            )

    def test_stall_slows_but_does_not_change_numerics(self):
        clean = self.run(FaultInjector([]))
        stalled = self.run(
            FaultInjector([FaultSpec("stall", after=5, stall_seconds=0.125)])
        )
        assert stalled.best_value == clean.best_value
        assert np.array_equal(stalled.best_position, clean.best_position)
        assert stalled.elapsed_seconds == pytest.approx(
            clean.elapsed_seconds + 0.125, rel=1e-9
        )

    def test_multi_gpu_engine_wires_all_workers(self):
        engine = make_engine("mgpu", n_devices=2)
        inj = FaultInjector([FaultSpec("launch_failure", after=6)])
        engine.attach_fault_injector(inj)
        with pytest.raises(LaunchFailedError):
            engine.optimize(
                Problem.from_benchmark("sphere", 4),
                n_particles=16,
                max_iter=6,
                params=replace(PAPER_DEFAULTS, seed=1),
            )


class TestMultiGpuFaults:
    """A fleet watches no shard buffer, so it refuses ``corrupt`` faults
    when the injector is attached instead of logging them as fired and
    damaging nothing; every other kind attaches and fires as on fastpso."""

    CORRUPT = FaultSpec("corrupt", after=20, buffer="positions", elems=4)
    JOB = dict(n_particles=16, max_iter=10)

    def run(self, specs):
        engine = make_engine("mgpu", n_devices=2)
        injector = FaultInjector(specs)
        engine.attach_fault_injector(injector)
        result = engine.optimize(
            Problem.from_benchmark("sphere", 4),
            params=replace(PAPER_DEFAULTS, seed=1),
            **self.JOB,
        )
        return result, injector

    @pytest.mark.parametrize(
        "specs",
        [[CORRUPT], [FaultSpec("stall", after=3, stall_seconds=0.5), CORRUPT]],
    )
    def test_engine_refuses_corrupt_at_attach(self, specs):
        from repro.engines.multi_gpu import CORRUPT_REFUSAL

        engine = make_engine("mgpu", n_devices=2)
        injector = FaultInjector(specs)
        with pytest.raises(InvalidParameterError) as err:
            engine.attach_fault_injector(injector)
        assert str(err.value) == CORRUPT_REFUSAL
        assert all(w.ctx.launcher.fault_injector is None for w in engine.workers)

    def test_batch_surfaces_the_refusal(self):
        from repro.batch import BatchScheduler, Job

        job = Job(
            "sphere", dim=4, seed=1, engine="mgpu",
            engine_options={"n_devices": 2}, **self.JOB,
        )
        plan = FaultPlan({0: [self.CORRUPT]})
        with pytest.raises(InvalidParameterError, match="corrupt faults"):
            BatchScheduler(n_devices=1, faults=plan).run([job])

    def test_serve_fails_the_job_with_the_refusal(self):
        import asyncio
        import json

        from repro.batch import Job
        from repro.engines.multi_gpu import CORRUPT_REFUSAL
        from repro.serve import OptimizationService

        job = Job(
            "sphere", dim=4, seed=1, engine="mgpu",
            engine_options={"n_devices": 2}, **self.JOB,
        )

        async def main():
            service = OptimizationService(
                n_devices=1, faults=FaultPlan({0: [self.CORRUPT]})
            )
            ticket = await service.submit(job, at=0.0)
            await service.drain()
            return service, ticket

        service, ticket = asyncio.run(main())
        assert ticket.status == "failed"
        (failed,) = [
            e for e in json.loads(service.events_json())["events"]
            if e["kind"] == "failed"
        ]
        assert failed["detail"]["error"] == (
            f"InvalidParameterError: {CORRUPT_REFUSAL}"
        )

    @pytest.mark.parametrize(
        "spec, error",
        [
            (FaultSpec("launch_failure", after=6), LaunchFailedError),
            (FaultSpec("device_lost", after=6), DeviceLostError),
            (FaultSpec("oom", after=3), DeviceOutOfMemoryError),
        ],
    )
    def test_other_kinds_still_fire(self, spec, error):
        with pytest.raises(error):
            self.run([spec])

    def test_stall_still_fires(self):
        clean, _ = self.run([])
        stalled, injector = self.run(
            [FaultSpec("stall", after=5, stall_seconds=0.125)]
        )
        assert [kind for kind, _ in injector.triggered] == ["stall"]
        assert stalled.best_value == clean.best_value
        assert stalled.elapsed_seconds > clean.elapsed_seconds


class TestFaultPlan:
    def test_lookup_by_index_then_label(self):
        plan = FaultPlan(
            {
                0: [FaultSpec("oom", after=1)],
                "night-job": [FaultSpec("stall", after=1, stall_seconds=1.0)],
            }
        )
        assert plan.specs_for(0)[0].kind == "oom"
        assert plan.specs_for(3, "night-job")[0].kind == "stall"
        assert plan.specs_for(3, "other") == ()
        assert plan.injector_for(3) is None  # fault-free: no injector at all

    def test_injector_seed_namespaced_by_job_index(self):
        plan = FaultPlan(
            {0: [FaultSpec("oom")], 1: [FaultSpec("oom")]}, seed=100
        )
        assert plan.injector_for(0).seed == 100
        assert plan.injector_for(1).seed == 101

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.drill(8, seed=3)
        path = tmp_path / "plan.json"
        import json

        path.write_text(json.dumps(plan.to_dict()))
        loaded = FaultPlan.from_json_file(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_drill_covers_the_required_mix(self):
        """The ISSUE acceptance drill: >=1 device-lost, >=2 launch failures,
        >=1 OOM, across a 32-job batch."""
        plan = FaultPlan.drill(32, seed=7)
        kinds = [
            s["kind"]
            for specs in plan.to_dict()["jobs"].values()
            for s in specs
        ]
        assert kinds.count("device_lost") >= 1
        assert kinds.count("launch_failure") >= 2
        assert kinds.count("oom") >= 1
        assert kinds.count("stall") >= 1
        assert kinds.count("corrupt") >= 1

    def test_drill_is_deterministic(self):
        assert (
            FaultPlan.drill(32, seed=7).to_dict()
            == FaultPlan.drill(32, seed=7).to_dict()
        )
