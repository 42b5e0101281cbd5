"""Fused multi-swarm batching (ISSUE 6): grouping, parity, composition.

The fused policy's headline guarantee mirrors the batch layer's: stacking
``m`` compatible swarms into one ``m*n x d`` engine loop changes *nothing*
a member computes — every per-swarm trajectory, simulated runtime and
serialized result payload is bit-identical to a solo run of the same spec.
These tests pin that contract (the goldens the benchmark's
``--check-parity`` flag re-checks), plus the grouping rules, admission
pricing, budget/checkpoint composition and policy validation around it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.batch import AdmissionPolicy, BatchScheduler, Job, estimate_job_bytes
from repro.batch.admission import estimate_group_bytes
from repro.batch.fused import (
    FUSABLE_ENGINES,
    FusedGroupRunner,
    fusion_key,
    plan_fused_groups,
)
from repro.core.budget import Budget
from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.core.schedules import LinearInertia
from repro.engines import make_engine
from repro.errors import InvalidParameterError
from repro.functions import Sphere, available_functions, make_function
from repro.functions.transforms import Shifted
from repro.io import result_to_dict

MB = 1024 * 1024


def _solo(job, **extra):
    """A fresh solo run of *job* — the parity reference."""
    engine = make_engine(job.engine, **dict(job.engine_options))
    return engine.optimize(
        job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
        record_history=job.record_history,
        **extra,
    )


def _family(engine, n=4, *, problem="rastrigin", n_particles=64, max_iter=30):
    """Compatible jobs differing by seed AND hyper-parameters — the mix
    the fused grouping must treat as one stack."""
    jobs = []
    for i in range(n):
        params = replace(
            PAPER_DEFAULTS,
            inertia=0.6 + 0.05 * i,
            cognitive=1.4 + 0.1 * i,
            seed=200 + i,
        )
        jobs.append(
            Job(
                problem,
                dim=8,
                n_particles=n_particles,
                max_iter=max_iter,
                engine=engine,
                params=params,
                record_history=True,
            )
        )
    return jobs


class TestGrouping:
    def test_compatible_jobs_form_one_group(self):
        jobs = _family("fastpso", 4)
        groups = plan_fused_groups(jobs)
        assert groups == [[0, 1, 2, 3]]

    def test_key_splits_on_shape_and_options(self):
        base = Job("sphere", dim=8, n_particles=64, max_iter=20, seed=1)
        variants = [
            base,
            base.with_overrides(seed=2),  # same key as base
            base.with_overrides(dim=16),
            base.with_overrides(n_particles=128),
            base.with_overrides(max_iter=21),
            base.with_overrides(engine="fastpso-tc"),
        ]
        keys = [fusion_key(j) for j in variants]
        assert keys[0] == keys[1]
        assert len({keys[0], *keys[2:]}) == 5  # everything else differs

    def test_different_problems_still_fuse(self):
        """Problems are not part of the key — the stacked evaluator
        handles per-member objectives."""
        a = Job("sphere", dim=8, n_particles=64, max_iter=20, seed=1)
        b = Job("rastrigin", dim=8, n_particles=64, max_iter=20, seed=2)
        assert fusion_key(a) == fusion_key(b)
        # Members are ordered problem-first so the stacked evaluator sees
        # contiguous same-problem row blocks.
        assert plan_fused_groups([a, b]) == [[1, 0]]

    def test_stragglers_fall_back_to_solo(self):
        jobs = _family("fastpso", 3) + [
            Job("sphere", dim=32, n_particles=128, max_iter=20, seed=9)
        ]
        groups = plan_fused_groups(jobs)
        assert groups == [[0, 1, 2]]  # the singleton runs solo

    def test_unfusable_engines_are_excluded(self):
        assert FUSABLE_ENGINES == frozenset({"fastpso", "gpu-pso"})
        assert fusion_key(Job("sphere", dim=8, engine="mgpu")) is None
        assert (
            fusion_key(
                Job(
                    "sphere",
                    dim=8,
                    engine_options={"record_launches": True},
                )
            )
            is None
        )

    def test_plan_is_deterministic(self):
        jobs = _family("fastpso", 3) + _family("gpu-pso", 3)
        assert plan_fused_groups(jobs) == plan_fused_groups(jobs)


class TestBitIdenticalGoldens:
    """The golden parity pins: every fused member's full serialized result
    equals its solo run, across engine families, seeds and mixed
    hyper-parameters."""

    @pytest.mark.parametrize(
        "engine", ["fastpso", "fastpso-tc", "fastpso-fp16", "gpu-pso"]
    )
    def test_deep_parity_per_engine_family(self, engine):
        jobs = _family(engine, 3)
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        (row,) = batch.fused_rows
        assert row["n_fused"] == 3
        assert row["fast_rounds"] > 0
        for job, outcome in zip(jobs, batch.outcomes):
            solo = _solo(job)
            assert outcome.status == "completed"
            assert result_to_dict(outcome.result) == result_to_dict(solo)
            assert (
                outcome.result.history.gbest_values
                == solo.history.gbest_values
            )
            assert (
                outcome.result.history.mean_pbest_values
                == solo.history.mean_pbest_values
            )

    @pytest.mark.parametrize(
        "engine",
        ["fastpso", "fastpso-shared", "fastpso-tc", "fastpso-fp16", "gpu-pso"],
    )
    def test_per_member_update_parameters(self, engine):
        """Every member runs its own step (iv): a group whose members differ
        in topology, velocity clamp, adaptive bound, position clipping and
        inertia schedule still equals each member's solo run."""
        variants = [
            {},
            {"topology": "ring"},
            {
                "velocity_clamp": 0.5,
                "final_velocity_fraction": 0.1,
                "clip_positions": True,
            },
            {"velocity_clamp": None, "adaptive_velocity": False},
            {"inertia_schedule": LinearInertia(0.9, 0.4)},
        ]
        jobs = [
            Job(
                "rastrigin",
                dim=8,
                n_particles=64,
                max_iter=30,
                engine=engine,
                params=replace(PAPER_DEFAULTS, seed=400 + i, **extra),
                record_history=True,
            )
            for i, extra in enumerate(variants)
        ]
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        (row,) = batch.fused_rows
        assert row["n_fused"] == len(jobs)
        assert row["fast_rounds"] > 0
        for job, outcome in zip(jobs, batch.outcomes):
            assert outcome.status == "completed"
            assert result_to_dict(outcome.result) == result_to_dict(_solo(job))

    def test_mixed_problem_group_stays_exact(self):
        jobs = [
            Job(
                problem,
                dim=8,
                n_particles=64,
                max_iter=25,
                seed=300 + i,
                record_history=True,
            )
            for i, problem in enumerate(
                ["sphere", "rastrigin", "levy", "sphere"]
            )
        ]
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        assert batch.fused_rows[0]["n_fused"] == 4
        for job, outcome in zip(jobs, batch.outcomes):
            assert result_to_dict(outcome.result) == result_to_dict(_solo(job))

    def test_every_registry_function_stacks(self, monkeypatch):
        """Each same-function row block is scored by one call to the
        registry evaluator on all of its members' rows, for every built-in
        function, and every member still equals its solo run."""
        n = 16
        stacked_calls = {}
        for name in available_functions():
            cls = type(make_function(name))

            def spy(self, positions, _name=name, _orig=cls.evaluate):
                if len(positions) == 2 * n:
                    stacked_calls[_name] = stacked_calls.get(_name, 0) + 1
                return _orig(self, positions)

            monkeypatch.setattr(cls, "evaluate", spy)
        jobs = [
            Job(name, dim=4, n_particles=n, max_iter=10, seed=500 + i)
            for i, name in enumerate(2 * available_functions())
        ]
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        (row,) = batch.fused_rows
        assert row["n_fused"] == len(jobs)
        assert row["fast_rounds"] > 0
        # One stacked call per fused round, plus the group-start check.
        assert stacked_calls == {
            name: row["fast_rounds"] + 1 for name in available_functions()
        }
        for job, outcome in zip(jobs, batch.outcomes):
            assert result_to_dict(outcome.result) == result_to_dict(_solo(job))

    def test_parameterised_and_user_objectives_run_per_member(self):
        """Two shift offsets under one name, and a user callable: none of
        them is the same function for every member, so each member is
        evaluated on its own rows and a callable never sees ``m*n``."""
        n, d = 16, 4
        rows_seen = []

        def objective(x):
            rows_seen.append(len(x))
            return np.sum(x * x, axis=1)

        custom = Problem.from_callable(
            objective, d, (-5.0, 5.0), vectorized=True
        )
        problems = [
            Problem.from_benchmark(Shifted(Sphere(), np.full(d, 1.5)), d),
            Problem.from_benchmark(Shifted(Sphere(), np.full(d, -2.0)), d),
            custom,
            custom,
        ]
        jobs = [
            Job(problem, dim=d, n_particles=n, max_iter=12, seed=700 + i)
            for i, problem in enumerate(problems)
        ]
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        (row,) = batch.fused_rows
        assert row["n_fused"] == len(jobs)
        assert row["fast_rounds"] > 0
        for job, outcome in zip(jobs, batch.outcomes):
            assert result_to_dict(outcome.result) == result_to_dict(_solo(job))
        assert rows_seen and max(rows_seen) == n

    def test_simulated_seconds_survive_fusing(self):
        jobs = _family("fastpso", 4)
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        for job, outcome in zip(jobs, batch.outcomes):
            solo = _solo(job)
            assert outcome.result.elapsed_seconds == solo.elapsed_seconds
            assert outcome.result.step_times == solo.step_times


class TestAllocatorCounters:
    @pytest.mark.parametrize("caching", [True, False], ids=["caching", "direct"])
    def test_fused_member_counters_equal_solo(self, caching):
        """Fused rounds replay each member's captured allocator traffic, so
        Table 4's counters end where the solo run's do — for the caching
        pool and for the per-request DirectAllocator."""
        jobs = _family("fastpso", 3)
        engines = [make_engine("fastpso", caching=caching) for _ in jobs]
        runner = FusedGroupRunner(
            [
                (
                    i,
                    engine.start_run(
                        job.resolved_problem(),
                        n_particles=job.n_particles,
                        max_iter=job.max_iter,
                        params=job.resolved_params,
                        record_history=True,
                    ),
                )
                for i, (job, engine) in enumerate(zip(jobs, engines))
            ]
        )
        results = runner.execute()
        assert runner.info()["n_fused"] == 3
        assert runner.fast_rounds > 0
        for job, engine, result in zip(jobs, engines, results):
            solo_engine = make_engine("fastpso", caching=caching)
            solo = solo_engine.optimize(
                job.resolved_problem(),
                n_particles=job.n_particles,
                max_iter=job.max_iter,
                params=job.resolved_params,
                record_history=True,
            )
            assert result_to_dict(result) == result_to_dict(solo)
            assert engine.ctx.allocator.stats == solo_engine.ctx.allocator.stats


class TestBudgetsMidGroup:
    def test_expired_member_gets_terminal_status_others_complete(self):
        jobs = _family("fastpso", 4, max_iter=40)
        jobs[1] = jobs[1].with_overrides(budget=Budget(iterations=15))
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        statuses = [o.status for o in batch.outcomes]
        assert statuses == [
            "completed",
            "budget_exhausted",
            "completed",
            "completed",
        ]
        assert batch.outcomes[1].result.iterations == 15
        # The expired member is still bit-identical to its solo budgeted run.
        solo = _solo(jobs[1], budget=Budget(iterations=15))
        assert result_to_dict(batch.outcomes[1].result) == result_to_dict(solo)
        # Survivors finish their full iteration count, bit-identically.
        for job, outcome in zip(jobs[2:], batch.outcomes[2:]):
            assert outcome.result.iterations == 40
            assert result_to_dict(outcome.result) == result_to_dict(_solo(job))


class TestResumeMidGroup:
    def test_crash_and_resume_splits_back_per_job(self, tmp_path):
        """Kill the group mid-flight (emulated by discarding the newer
        snapshots), re-run, and every member must still match its solo
        run exactly — the group snapshot splits back into per-job state."""
        ck = tmp_path / "ckpts"
        jobs = _family("fastpso", 4, max_iter=40)
        full = BatchScheduler(
            streams_per_device=2,
            policy="fused",
            checkpoint_dir=ck,
            checkpoint_every=10,
            checkpoint_keep=10,
        ).run(jobs)
        # Emulate a crash after iteration 10: drop the later snapshots.
        removed = 0
        for path in ck.rglob("*.ckpt"):
            if "iter0000010" not in path.name:
                path.unlink()
                removed += 1
        assert removed > 0
        resumed = BatchScheduler(
            streams_per_device=2,
            policy="fused",
            checkpoint_dir=ck,
            checkpoint_every=10,
            checkpoint_keep=10,
        ).run(jobs)
        assert resumed.fused_rows[0]["n_fused"] == 4
        for job, a, b in zip(jobs, full.outcomes, resumed.outcomes):
            assert result_to_dict(a.result) == result_to_dict(b.result)
            assert result_to_dict(b.result) == result_to_dict(_solo(job))


class TestAdmissionGroupPricing:
    def test_group_estimate_exceeds_member_sum(self):
        """The stacked tensors are priced on top of the members' own
        arrays — a fused group can never look cheaper than its parts."""
        jobs = _family("fastpso", 4)
        assert estimate_group_bytes(jobs) > sum(
            estimate_job_bytes(j) for j in jobs
        )

    def test_group_degrades_coherently(self):
        jobs = [
            Job(
                "sphere",
                dim=32,
                n_particles=1024,
                max_iter=5,
                seed=i,
                name=f"g{i}",
            )
            for i in range(3)
        ]
        limit = 2 * estimate_group_bytes(
            [j.with_overrides(n_particles=256) for j in jobs]
        )
        policy = AdmissionPolicy(memory_limit_bytes=limit)
        plan = policy.plan(
            jobs,
            streams_per_device=2,
            device_mem_bytes=16 * 1024 * MB,
            groups=[[0, 1, 2]],
        )
        assert [d.action for d in plan] == ["degrade"] * 3
        # Every member lands on the same shared swarm size with the
        # group-scoped reason — no member degrades alone.
        assert {d.job.n_particles for d in plan} == {256}
        assert all(d.reason.endswith("(fused group)") for d in plan)

    def test_impossible_group_is_shed_whole(self):
        jobs = [
            Job("sphere", dim=64, n_particles=4096, name=f"g{i}", seed=i)
            for i in range(2)
        ]
        plan = AdmissionPolicy(memory_limit_bytes=1024).plan(
            jobs,
            streams_per_device=2,
            device_mem_bytes=16 * 1024 * MB,
            groups=[[0, 1]],
        )
        assert [d.action for d in plan] == ["shed", "shed"]
        assert all("fused group of 2" in d.reason for d in plan)
        assert all("even fully degraded" in d.reason for d in plan)

    def test_degraded_group_still_runs_and_matches_solo(self):
        jobs = [
            Job(
                "sphere",
                dim=16,
                n_particles=512,
                max_iter=10,
                seed=400 + i,
                record_history=True,
            )
            for i in range(3)
        ]
        limit = 2 * estimate_group_bytes(
            [j.with_overrides(n_particles=128) for j in jobs]
        )
        batch = BatchScheduler(
            streams_per_device=2, policy="fused", memory_limit_bytes=limit
        ).run(jobs)
        assert batch.n_degraded == 3
        for job, outcome in zip(jobs, batch.outcomes):
            assert outcome.status == "degraded"
            degraded = job.with_overrides(
                n_particles=outcome.result.n_particles
            )
            assert result_to_dict(outcome.result) == result_to_dict(
                _solo(degraded)
            )


class TestPolicyValidation:
    def test_unknown_policy_suggests_fused(self):
        with pytest.raises(InvalidParameterError) as exc_info:
            BatchScheduler(policy="fuzed")
        assert "did you mean 'fused'?" in str(exc_info.value)

    def test_unknown_policy_without_lookalike_lists_choices(self):
        with pytest.raises(InvalidParameterError) as exc_info:
            BatchScheduler(policy="zzz")
        message = str(exc_info.value)
        assert "did you mean" not in message
        assert "'fifo', 'packed', 'fused'" in message

    @pytest.mark.parametrize("knob", ["retry", "faults", "breaker"])
    def test_fused_refuses_fault_injection_knobs(self, knob):
        from repro.reliability import FaultPlan, RetryPolicy

        values = {
            "retry": RetryPolicy(),
            "faults": FaultPlan.drill(4, seed=1),
            "breaker": object(),
        }
        with pytest.raises(InvalidParameterError) as exc_info:
            BatchScheduler(policy="fused", **{knob: values[knob]})
        assert "does not compose" in str(exc_info.value)


class TestReporting:
    def test_fused_rows_round_trip_to_dict(self):
        jobs = _family("fastpso", 3)
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        payload = batch.to_dict()
        assert len(payload["fused_groups"]) == 1
        row = payload["fused_groups"][0]
        assert row["n_fused"] == 3
        assert sorted(row["members"]) == sorted(j.label for j in jobs)
        assert row["lane_seconds"] > 0.0

    def test_group_lane_is_shorter_than_member_sum(self):
        """The scheduling win the makespan speedup comes from: one lane
        segment for the whole group, shorter than its members back to
        back."""
        jobs = _family("fastpso", 4)
        batch = BatchScheduler(streams_per_device=2, policy="fused").run(jobs)
        (row,) = batch.fused_rows
        sum_solo = sum(o.result.elapsed_seconds for o in batch.outcomes)
        longest = max(o.result.elapsed_seconds for o in batch.outcomes)
        assert longest <= row["lane_seconds"] <= sum_solo
        assert batch.makespan_seconds < sum_solo
