"""OptimizationService: parity, streaming, quotas, autoscaling, events."""

import asyncio

import numpy as np
import pytest

from repro.batch import Job
from repro.core.budget import Budget
from repro.engines import make_engine
from repro.errors import AdmissionError, ConfigurationError, InvalidParameterError
from repro.reliability.breaker import BreakerPolicy
from repro.reliability.faults import FaultPlan, FaultSpec
from repro.serve import (
    AutoscalePolicy,
    OptimizationService,
    TenantQuota,
)

JOB = Job(
    "rastrigin", dim=8, n_particles=48, max_iter=25, seed=7,
    record_history=True,
)


def solo(job):
    return make_engine("fastpso").optimize(
        job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
        record_history=job.record_history,
    )


class TestParity:
    def test_served_result_bit_identical_to_solo(self):
        async def main():
            service = OptimizationService(n_devices=2)
            ticket = await service.submit(JOB)
            return await ticket.wait()

        result = asyncio.run(main())
        reference = solo(JOB)
        assert result.best_value == reference.best_value
        assert np.array_equal(result.best_position, reference.best_position)
        assert result.history.gbest_values == reference.history.gbest_values
        assert result.elapsed_seconds == reference.elapsed_seconds

    def test_concurrent_jobs_each_match_their_solo_run(self):
        jobs = [JOB.with_overrides(seed=s) for s in (1, 2, 3)]

        async def main():
            service = OptimizationService(n_devices=1, streams_per_device=2)
            tickets = [await service.submit(j, at=0.0) for j in jobs]
            await service.drain()
            return tickets

        tickets = asyncio.run(main())
        for job, ticket in zip(jobs, tickets):
            assert ticket.status == "completed"
            assert ticket.result.best_value == solo(job).best_value


class TestStreaming:
    def test_updates_monotone_and_reconstruct_solo_trace(self):
        async def main():
            service = OptimizationService(n_devices=1, streams_per_device=1)
            # Two jobs: the second queues, so a watcher attached before it
            # runs observes its updates live.
            await service.submit(JOB, at=0.0)
            ticket = await service.submit(
                JOB.with_overrides(seed=8), at=0.0
            )
            assert ticket.status == "queued"
            updates = []

            async def watch():
                async for update in ticket.stream():
                    updates.append(update)

            watcher = asyncio.ensure_future(watch())
            await service.drain()
            await watcher
            return ticket, updates

        ticket, updates = asyncio.run(main())
        values = [u.best_value for u in updates]
        assert values, "streaming produced no updates"
        assert all(b < a for a, b in zip(values, values[1:]))
        # Carrying the last update forward reconstructs the solo trace
        # bit-for-bit.
        reference = solo(JOB.with_overrides(seed=8))
        by_iter = {u.iteration: u.best_value for u in updates}
        trace, last = [], None
        for t in range(JOB.max_iter):
            last = by_iter.get(t, last)
            trace.append(last)
        assert trace == reference.history.gbest_values

    def test_late_consumer_replays_and_terminates(self):
        async def main():
            service = OptimizationService(n_devices=1)
            ticket = await service.submit(JOB)  # runs eagerly (idle fleet)
            assert ticket.finished
            seen = [u async for u in ticket.stream()]
            return seen

        seen = asyncio.run(main())
        assert seen and seen[0].iteration == 0


class TestQuotas:
    def test_max_active_sheds_overflow(self):
        quota = TenantQuota(max_active=1)

        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1,
                quotas={"free": quota},
            )
            first = await service.submit(JOB, tenant="free", at=0.0)
            # First job ran eagerly but still occupies its lane in virtual
            # time, so a second arrival inside that window is refused.
            second = await service.submit(
                JOB.with_overrides(seed=9), tenant="free", at=0.0
            )
            third = await service.submit(
                JOB.with_overrides(seed=10), tenant="other", at=0.0
            )
            await service.drain()
            return first, second, third

        first, second, third = asyncio.run(main())
        assert first.status == "completed"
        assert second.status == "shed"
        assert "active-job quota 1" in second.admission_reason
        assert third.status == "completed"  # other tenants unaffected

    def test_tenant_budget_merges_tightest_wins(self):
        tiny = Budget(iterations=5)

        async def main():
            service = OptimizationService(
                n_devices=1, quotas={"free": TenantQuota(budget=tiny)}
            )
            capped = await service.submit(JOB, tenant="free")
            free = await service.submit(JOB.with_overrides(seed=9))
            return capped, free

        capped, free = asyncio.run(main())
        assert capped.status == "budget_exhausted"
        assert capped.result.iterations == 5
        assert free.status == "completed"

    def test_tenant_priority_overrides_job_priority(self):
        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1,
                quotas={"pro": TenantQuota(priority=10)},
            )
            # Fill the lane, then queue free before pro; pro must run first.
            await service.submit(JOB, at=0.0)
            free = await service.submit(
                JOB.with_overrides(seed=1), tenant="free", at=0.0
            )
            pro = await service.submit(
                JOB.with_overrides(seed=2), tenant="pro", at=0.0
            )
            await service.drain()
            return free, pro

        free, pro = asyncio.run(main())
        assert pro.placement.start_seconds < free.placement.start_seconds

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError, match="max_active"):
            TenantQuota(max_active=0)
        with pytest.raises(ConfigurationError, match="budget"):
            TenantQuota(budget=3.0)


class TestAdmission:
    def test_queue_bound_sheds_arrivals(self):
        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1, max_queue=1
            )
            tickets = [
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
                for s in range(3)
            ]
            await service.drain()
            return tickets

        tickets = asyncio.run(main())
        statuses = [t.status for t in tickets]
        assert statuses[0] == "completed"  # ran eagerly, never queued
        assert statuses[1] == "completed"  # queued within the bound
        assert statuses[2] == "shed"
        assert "queue bound 1" in tickets[2].admission_reason

    def test_strict_mode_raises(self):
        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1,
                admission="strict", max_queue=1,
            )
            for s in range(2):
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
            await service.submit(JOB.with_overrides(seed=99), at=0.0)

        with pytest.raises(AdmissionError, match="queue bound"):
            asyncio.run(main())

    def test_arrivals_must_be_non_decreasing(self):
        async def main():
            service = OptimizationService()
            await service.submit(JOB, at=5.0)
            await service.submit(JOB, at=4.0)

        with pytest.raises(InvalidParameterError, match="non-decreasing"):
            asyncio.run(main())


class TestAutoscaling:
    def test_grows_under_queue_pressure_and_shrinks_when_idle(self):
        policy = AutoscalePolicy(
            min_devices=1, max_devices=3, queue_high=2.0,
            idle_observations=2,
        )

        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1, autoscale=policy
            )
            # Burst at t=0 queues deep; the autoscaler grows the fleet.
            for s in range(6):
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
            await service.drain()
            grown = service.n_devices
            # Sparse arrivals leave the fleet idle; it shrinks back.
            t = service.now
            for s in range(4):
                t += 1.0
                await service.submit(JOB.with_overrides(seed=10 + s), at=t)
            await service.drain()
            return service, grown

        service, grown = asyncio.run(main())
        assert grown > 1
        kinds = [e.kind for e in service.events]
        assert "scale_up" in kinds and "scale_down" in kinds
        assert len(service.active_devices) < grown

    def test_boot_delay_defers_new_lanes(self):
        policy = AutoscalePolicy(
            min_devices=1, max_devices=2, queue_high=1.0, boot_seconds=50.0
        )

        async def main():
            service = OptimizationService(
                n_devices=1, streams_per_device=1, autoscale=policy
            )
            for s in range(3):
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
            await service.drain()
            return service

        service = asyncio.run(main())
        ups = [e for e in service.events if e.kind == "scale_up"]
        assert ups and ups[0].detail["lanes_open_at"] == pytest.approx(
            ups[0].time + 50.0
        )
        # Lanes open too late to help this burst: everything ran on dev 0.
        devices = {
            e.detail["device"]
            for e in service.events
            if e.kind == "dispatch"
        }
        assert devices == {0}

    def test_n_devices_must_respect_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            OptimizationService(
                n_devices=5, autoscale=AutoscalePolicy(max_devices=4)
            )

    def test_breaker_fleet_grows_with_the_timeline(self, tmp_path):
        # Device indices are never reused: a scale-up after a scale-down
        # provisions index max_devices, which must get a breaker of its
        # own.  Job 5 loses that device, so its breaker trips open.
        kw = dict(
            n_devices=1,
            streams_per_device=1,
            autoscale=AutoscalePolicy(1, 2, queue_high=1, idle_observations=1),
            breaker=BreakerPolicy(failure_threshold=1),
            faults=FaultPlan({5: (FaultSpec("device_lost", after=6),)}),
            retry=2,
        )

        async def main(service):
            for s in range(4):
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
            for s in range(8):
                await service.submit(JOB.with_overrides(seed=10 + s), at=1.0)
            await service.drain()

        service = OptimizationService(journal_dir=tmp_path / "wal", **kw)
        asyncio.run(main(service))
        assert [t.status for t in service._tickets] == ["completed"] * 12
        assert service.n_devices == 3
        assert len(service._health.breakers) == service.n_devices
        rows = service._health.to_rows()
        assert [(r["device"], r["event"]) for r in rows] == [(2, "open")]
        recovered = OptimizationService.recover(tmp_path / "wal", **kw)
        assert len(recovered._health.breakers) == recovered.n_devices == 3
        assert recovered._health.to_rows() == rows
        assert recovered.events_json() == service.events_json()

    def test_decisions_are_replayable(self):
        async def run_once():
            service = OptimizationService(
                n_devices=1,
                streams_per_device=1,
                autoscale=AutoscalePolicy(max_devices=3, queue_high=2.0),
            )
            for s in range(6):
                await service.submit(JOB.with_overrides(seed=s), at=0.0)
            await service.drain()
            return service.events_json()

        assert asyncio.run(run_once()) == asyncio.run(run_once())


class TestStatusAndReport:
    def test_status_rows_and_report_counts(self):
        async def main():
            service = OptimizationService(n_devices=1)
            await service.submit(JOB, at=0.0)
            await service.submit(JOB.with_overrides(seed=9), at=0.0)
            await service.drain()
            return service

        service = asyncio.run(main())
        rows = service.status()
        assert [row["job_id"] for row in rows] == [0, 1]
        assert all(row["status"] == "completed" for row in rows)
        assert service.status(0)["latency"] > 0
        report = service.report()
        assert report.n_jobs == 2
        assert report.counts == {"completed": 2}
        assert report.p50_latency_seconds > 0
        assert report.p99_latency_seconds >= report.p50_latency_seconds
        assert report.throughput_per_second > 0
        assert report.shed_rate == 0.0
        assert "2 job(s)" in report.summary()

    def test_unknown_job_id_rejected(self):
        service = OptimizationService()
        with pytest.raises(InvalidParameterError, match="unknown job id"):
            service.status(3)

    def test_empty_report_is_all_zeroes(self):
        # No submissions: the degenerate report must not raise on the
        # empty latency set — every rate and percentile is a plain 0.0.
        report = OptimizationService().report()
        assert report.n_jobs == 0
        assert report.counts == {}
        assert report.p50_latency_seconds == 0.0
        assert report.p99_latency_seconds == 0.0
        assert report.mean_latency_seconds == 0.0
        assert report.throughput_per_second == 0.0
        assert report.shed_rate == 0.0
        assert "0 job(s)" in report.summary()

    def test_all_refused_report_sheds_everything_with_zeroed_latencies(
        self, tmp_path
    ):
        # A drill where every submission is refused (degraded read-only
        # service) has no finished latencies at all: shed_rate pegs at
        # 1.0 and the percentile fields report 0.0 instead of raising.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        service = OptimizationService(journal_dir=blocker / "wal")

        async def main():
            for seed in (1, 2, 3):
                await service.submit(JOB.with_overrides(seed=seed), at=0.0)

        asyncio.run(main())
        report = service.report()
        assert report.n_jobs == 3
        assert report.counts == {"refused": 3}
        assert report.shed_rate == 1.0
        assert report.p50_latency_seconds == 0.0
        assert report.p99_latency_seconds == 0.0
        assert report.mean_latency_seconds == 0.0
        assert report.throughput_per_second == 0.0
        assert "shed=100.00%" in report.summary()
