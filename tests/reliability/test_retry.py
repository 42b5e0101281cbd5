"""Retry/failover semantics: fresh devices, resume, CPU degradation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.errors import InvalidParameterError
from repro.reliability import (
    CheckpointManager,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    run_with_recovery,
)


@pytest.fixture
def run_kwargs(sphere6, seeded_params):
    return dict(
        engine_name="fastpso",
        problem=sphere6,
        n_particles=32,
        max_iter=16,
        params=seeded_params,
        record_history=True,
    )


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_seconds=0.5, backoff_factor=3.0)
        assert [policy.backoff_for(i) for i in range(3)] == [0.5, 1.5, 4.5]

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_attempts": 0},
            {"backoff_seconds": -1.0},
            {"backoff_factor": 0.5},
            {"retry_on": ()},
        ],
    )
    def test_invalid_policies_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(**bad)


class TestRecovery:
    def test_clean_run_is_a_single_attempt(self, run_kwargs):
        report = run_with_recovery(**run_kwargs)
        assert report.succeeded
        assert report.attempts == 1
        assert report.retries == 0
        assert report.errors == ()
        assert report.recovery_seconds == 0.0
        assert not report.fell_back_to_cpu

    def test_transient_launch_failure_recovers_bit_identically(
        self, run_kwargs, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            "fastpso", run_kwargs["problem"], run_kwargs["params"],
            n=32, iters=16,
        )
        report = run_with_recovery(
            **run_kwargs,
            injector=FaultInjector([FaultSpec("launch_failure", after=9)]),
        )
        assert report.succeeded
        assert report.attempts == 2
        assert "injected launch failure" in report.errors[0]
        assert_bit_identical(report.result, golden)
        # The failed attempt's work was thrown away and one backoff served.
        assert report.lost_seconds > 0.0
        assert report.backoff_seconds == RetryPolicy().backoff_for(0)

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("device_lost", after=12),
            FaultSpec("oom", after=9),
            FaultSpec("corrupt", after=14, buffer="velocities"),
        ],
        ids=["device_lost", "oom", "corrupt"],
    )
    def test_every_fault_kind_recovers_bit_identically(
        self, spec, run_kwargs, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            "fastpso", run_kwargs["problem"], run_kwargs["params"],
            n=32, iters=16,
        )
        report = run_with_recovery(
            **run_kwargs, injector=FaultInjector([spec], seed=2)
        )
        assert report.succeeded
        assert report.attempts == 2
        assert_bit_identical(report.result, golden)

    def test_sticky_device_loss_cleared_by_fresh_device(self, run_kwargs):
        injector = FaultInjector([FaultSpec("device_lost", after=3)])
        report = run_with_recovery(**run_kwargs, injector=injector)
        assert report.succeeded
        assert not injector.device_lost  # the replacement device is healthy

    def test_checkpoint_resume_bounds_lost_work(
        self, tmp_path, run_kwargs, run_clean, assert_bit_identical
    ):
        golden = run_clean(
            "fastpso", run_kwargs["problem"], run_kwargs["params"],
            n=32, iters=16,
        )
        # Without checkpoints the whole failed attempt is lost...
        bare = run_with_recovery(
            **run_kwargs,
            injector=FaultInjector([FaultSpec("device_lost", after=40)]),
        )
        # ... with per-iteration checkpoints only the tail since the last
        # snapshot is.
        managed = run_with_recovery(
            **run_kwargs,
            injector=FaultInjector([FaultSpec("device_lost", after=40)]),
            checkpoint=CheckpointManager(tmp_path, every=1, keep=3),
        )
        assert bare.succeeded and managed.succeeded
        assert managed.lost_seconds < bare.lost_seconds
        assert_bit_identical(managed.result, golden)
        assert_bit_identical(bare.result, golden)

    def test_exhaustion_returns_failed_report_without_raising(
        self, run_kwargs
    ):
        hammer = FaultInjector(
            [FaultSpec("launch_failure", after=k) for k in (2, 4, 6)]
        )
        report = run_with_recovery(
            **run_kwargs,
            policy=RetryPolicy(max_attempts=3, cpu_fallback=None),
            injector=hammer,
        )
        assert not report.succeeded
        assert report.result is None
        assert report.attempts == 3
        assert len(report.errors) == 3
        # Two inter-attempt backoffs (none after the final failure).
        assert report.backoff_seconds == sum(
            RetryPolicy().backoff_for(i) for i in range(2)
        )

    def test_cpu_fallback_produces_identical_trajectory(
        self, run_kwargs, run_clean
    ):
        """Final-attempt degradation to fastpso-seq: same numerics contract."""
        cpu_golden = run_clean(
            "fastpso-seq", run_kwargs["problem"], run_kwargs["params"],
            n=32, iters=16,
        )
        gpu_golden = run_clean(
            "fastpso", run_kwargs["problem"], run_kwargs["params"],
            n=32, iters=16,
        )
        hammer = FaultInjector(
            [FaultSpec("launch_failure", after=k) for k in (2, 4)]
        )
        report = run_with_recovery(
            **run_kwargs,
            policy=RetryPolicy(max_attempts=3, cpu_fallback="fastpso-seq"),
            injector=hammer,
        )
        assert report.succeeded
        assert report.fell_back_to_cpu
        assert report.result.engine == "fastpso-seq"
        assert report.result.best_value == cpu_golden.best_value
        assert report.result.best_value == gpu_golden.best_value
        assert list(report.result.history.gbest_values) == list(
            gpu_golden.history.gbest_values
        )

    def test_non_transient_errors_propagate(self, run_kwargs):
        kwargs = dict(run_kwargs, n_particles=-5)
        with pytest.raises(InvalidParameterError):
            run_with_recovery(**kwargs)


class TestRetryArgument:
    """Both hosts normalise ``retry=`` the same way, at construction."""

    @pytest.fixture(params=["batch", "serve"])
    def host(self, request):
        if request.param == "batch":
            from repro.batch import BatchScheduler

            return BatchScheduler
        from repro.serve import OptimizationService

        return OptimizationService

    def test_attempt_count_becomes_a_policy(self, host):
        assert host(retry=3).retry == RetryPolicy(max_attempts=3)

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3"])
    def test_non_counts_are_refused_up_front(self, host, bad):
        with pytest.raises(InvalidParameterError, match="attempt count"):
            host(retry=bad)

    def test_batch_attempt_count_runs_a_faulted_batch(self):
        from repro.batch import BatchScheduler, mixed_workload
        from repro.reliability import FaultPlan

        jobs = mixed_workload(4, base_seed=3)
        counted = BatchScheduler(
            retry=3, faults=FaultPlan.drill(4, seed=3)
        ).run(jobs)
        explicit = BatchScheduler(
            retry=RetryPolicy(max_attempts=3),
            faults=FaultPlan.drill(4, seed=3),
        ).run(jobs)
        assert counted.total_retries > 0
        assert counted.to_dict() == explicit.to_dict()
