"""Multi-GPU fleet jobs on the serving layer.

The serving loop steps every job through ``RunningJob``; a fleet run is an
ordinary stepped run, so an ``mgpu`` job completes exactly like its solo
``optimize()`` and a mid-run cancel returns the best-so-far answer.  A
fleet run cannot be snapshotted, so a checkpoint-backed cancel records no
checkpoint, and a service that would checkpoint the job mid-run refuses it
at submit.
"""

import asyncio

import numpy as np
import pytest

from repro.batch import Job
from repro.engines import make_engine
from repro.errors import InvalidParameterError
from repro.io import result_to_dict
from repro.serve import OptimizationService
from repro.serve.journal import read_journal

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


@pytest.mark.parametrize(
    "checkpointing",
    [
        pytest.param(lambda tmp: {"journal_dir": tmp}, id="journaled"),
        pytest.param(
            lambda tmp: {"retry": 2, "checkpoint_dir": tmp}, id="retry-checkpoints"
        ),
    ],
)
def test_checkpointing_service_refuses_mgpu_job_at_submit(checkpointing, tmp_path):
    """A service that would give the job mid-run checkpoints raises the
    fleet's own refusal from ``submit``: no event, no journal record, no
    ticket and no lane.  The service then runs its next job as if the
    refused one had never arrived."""

    def journal_records(service):
        journal = service._journal
        return None if journal is None else read_journal(journal.path)[0]

    async def main():
        service = OptimizationService(
            n_devices=1, streams_per_device=1, **checkpointing(tmp_path)
        )
        records = journal_records(service)
        with pytest.raises(InvalidParameterError) as refusal:
            await service.submit(JOB, at=0.0)
        assert service.events == ()
        assert journal_records(service) == records
        assert service._timeline.makespan_seconds == 0.0
        ticket = await service.submit(
            JOB.with_overrides(engine="fastpso", engine_options={}), at=0.0
        )
        await service.drain()
        return refusal.value, ticket

    refusal, ticket = asyncio.run(main())
    with pytest.raises(InvalidParameterError) as fleet_refusal:
        make_engine("mgpu", n_devices=2).start_run(
            JOB.resolved_problem(), n_particles=JOB.n_particles, checkpoint=object()
        )
    assert str(refusal) == str(fleet_refusal.value)
    assert ticket.job_id == 0
    assert ticket.status == "completed"
