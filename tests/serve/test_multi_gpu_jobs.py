"""Multi-GPU fleet jobs on the serving layer.

The serving loop steps every job through ``RunningJob``; a fleet run is an
ordinary stepped run, so an ``mgpu`` job completes exactly like its solo
``optimize()`` and a mid-run cancel returns the best-so-far answer.  A
fleet run cannot be snapshotted, so a checkpoint-backed cancel records no
checkpoint.
"""

import asyncio

import numpy as np

from repro.batch import Job
from repro.engines import make_engine
from repro.io import result_to_dict
from repro.serve import OptimizationService

JOB = Job(
    "rastrigin",
    dim=6,
    n_particles=67,
    max_iter=40,
    seed=5,
    engine="mgpu",
    engine_options={"n_devices": 2, "exchange_interval": 7},
    record_history=True,
)


def solo(job):
    return make_engine(job.engine, **job.engine_options).optimize(
        job.resolved_problem(),
        n_particles=job.n_particles,
        max_iter=job.max_iter,
        params=job.resolved_params,
        record_history=job.record_history,
    )


def test_mgpu_job_completes_like_its_solo_run():
    async def main():
        service = OptimizationService(n_devices=1, streams_per_device=1)
        ticket = await service.submit(JOB, at=0.0)
        await service.drain()
        return ticket

    ticket = asyncio.run(main())
    assert ticket.status == "completed"
    assert result_to_dict(ticket.result) == result_to_dict(solo(JOB))


def test_cancelled_mgpu_job_returns_best_so_far_without_checkpoint(tmp_path):
    async def main():
        service = OptimizationService(
            n_devices=1,
            streams_per_device=1,
            checkpoint_dir=tmp_path,
        )
        # The first job occupies the only lane, so the watcher is streaming
        # before the target is dispatched.
        await service.submit(JOB.with_overrides(seed=6), at=0.0)
        target = await service.submit(JOB, at=0.0)

        async def watcher():
            seen = 0
            async for _ in target.stream():
                seen += 1
                if seen >= 3:
                    target.cancel()
                    return

        task = asyncio.ensure_future(watcher())
        await service.drain()
        await task
        return service, target

    service, target = asyncio.run(main())
    assert target.status == "cancelled"
    result = target.result
    assert result.status == "cancelled"
    assert 0 < result.iterations < JOB.max_iter
    assert np.isfinite(result.best_value)
    # The best-so-far answer is the fleet's best, reached on the way to the
    # uninterrupted run's answer.
    full = solo(JOB)
    assert result.best_value == full.history.gbest_values[result.iterations - 1]
    assert target.checkpoint_path is None
    event = next(
        e
        for e in service.events
        if e.kind == "cancel" and e.job_id == target.job_id
    )
    assert event.detail["phase"] == "running"
    assert event.detail["checkpoint"] is None
