"""The benchmark's four workloads, each driven through the public API.

Every workload has an untimed :meth:`Workload.setup` (scheduler/service
construction plus one warm-up job of its first shape) and a
:meth:`Workload.rep` that does the workload's fixed work once and returns
what is needed to check it: job counts, the particle-iterations done, and
sha256 digests of the outputs.  Simulated seconds, trajectories and event
logs enter only those digests; they are correctness properties, never
metrics.

Which ROADMAP open item each workload is meant to show: serve-burst the
promotion cache and fixed C-step charges (4a/4b), serve-durable journal
group commit (4c), batch-mixed the removal of the Python replay tier (2).
The attempt-loop merge (3) should leave all four unchanged, and
solo-native should move only with the C step itself.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.batch import BatchScheduler, mixed_workload
from repro.core.parameters import PAPER_DEFAULTS
from repro.core.problem import Problem
from repro.engines import make_engine
from repro.gpusim import fastpath
from repro.io import result_to_dict
from repro.serve import AutoscalePolicy, LoadProfile, OptimizationService, replay

#: solo-native: the paper's single large swarm (Table 1 shape class).
SOLO_PROBLEM, SOLO_DIM, SOLO_PARTICLES, SOLO_ITERS = "sphere", 50, 2000, 1000
SOLO_ENGINES = ("fastpso", "fastpso-seq")
#: Enough iterations for a warm-up run to cross the five-step promotion
#: ramp and execute native steps.
WARMUP_ITERS = 8

#: batch-mixed: the reference mix on one device with four streams.  The
#: mix repeats every eight jobs, so sixteen hold every problem/shape/engine
#: pairing twice and fused groups of four, at half the 32-job time.
BATCH_JOBS, BATCH_STREAMS = 16, 4
BATCH_POLICIES = ("packed", "fused")

#: serve-burst / serve-durable: the default LoadProfile storm shape at a
#: session count that fits several repetitions into one measured run.
SERVE_SESSIONS = 100
SERVE_MAX_DEVICES = 4


def digest(obj) -> str:
    """sha256 of *obj*'s canonical JSON (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def results_digest(results) -> str:
    return digest([None if r is None else result_to_dict(r) for r in results])


@dataclass
class RepResult:
    """The checkable outcome of one repetition of a workload's fixed work."""

    attempted: int
    failed: int
    particle_iters: int
    digests: dict[str, str]
    #: Cross-check failures found inside the repetition itself.
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = Path(scratch)

    def setup(self) -> None:
        """Load the native tier and run one untimed warm-up job."""
        if not fastpath.available():
            raise RuntimeError("the native tier (gpusim.fastpath) is unavailable")

    def rep(self) -> RepResult:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Untimed tidy-up after a repetition."""


class SoloNative(Workload):
    """Closed loop, one caller: fastpso, then the same shape on fastpso-seq."""

    name = "solo-native"

    def setup(self) -> None:
        super().setup()
        self.problem = Problem.from_benchmark(SOLO_PROBLEM, SOLO_DIM)
        self.params = dataclasses.replace(PAPER_DEFAULTS, seed=self.seed)
        self._drive(SOLO_ENGINES[0], WARMUP_ITERS)

    def _drive(self, engine_name: str, max_iter: int):
        engine = make_engine(engine_name)
        run = engine.start_run(
            self.problem,
            n_particles=SOLO_PARTICLES,
            max_iter=max_iter,
            params=self.params,
        )
        for t in range(run.start_iter, run.max_iter):
            if run.step(t):
                break
        return run.finish()

    def rep(self) -> RepResult:
        results = [self._drive(name, SOLO_ITERS) for name in SOLO_ENGINES]
        problems = []
        fast, seq = results
        # One algorithm on two substrates: identical trajectories.
        if fast.best_value != seq.best_value or (
            fast.best_position.tobytes() != seq.best_position.tobytes()
        ):
            problems.append("fastpso and fastpso-seq trajectories differ")
        failed = sum(
            1
            for r in results
            if r.status != "completed" or r.iterations != SOLO_ITERS
        )
        return RepResult(
            attempted=len(results),
            failed=failed,
            particle_iters=sum(r.n_particles * r.iterations for r in results),
            digests={"results": results_digest(results)},
            problems=problems,
        )


class BatchMixed(Workload):
    """The mixed batch through one BatchScheduler, packed then fused."""

    name = "batch-mixed"

    def setup(self) -> None:
        super().setup()
        self.jobs = mixed_workload(BATCH_JOBS, base_seed=self.seed)
        self._scheduler(BATCH_POLICIES[0]).run([self.jobs[0]])

    @staticmethod
    def _scheduler(policy: str) -> BatchScheduler:
        return BatchScheduler(
            n_devices=1, streams_per_device=BATCH_STREAMS, policy=policy
        )

    def rep(self) -> RepResult:
        attempted = failed = particle_iters = 0
        digests, payloads = {}, {}
        for policy in BATCH_POLICIES:
            batch = self._scheduler(policy).run(self.jobs)
            results = []
            for outcome in batch.outcomes:
                attempted += 1
                if not outcome.succeeded or outcome.status != "completed":
                    failed += 1
                    results.append(None)
                    continue
                results.append(outcome.result)
                particle_iters += (
                    outcome.result.n_particles * outcome.result.iterations
                )
            payloads[policy] = [
                (o.job.label, None if r is None else result_to_dict(r))
                for o, r in zip(batch.outcomes, results)
            ]
            digests[policy] = digest(
                {"results": payloads[policy], "makespan": batch.makespan_seconds}
            )
        problems = []
        # Fused stacking changes how iterations run, never what they compute.
        packed, fused = payloads["packed"], payloads["fused"]
        mismatched = sum(1 for a, b in zip(packed, fused) if a != b)
        if mismatched or len(packed) != len(fused):
            problems.append(f"{mismatched} fused job(s) differ from packed")
            failed += mismatched
        return RepResult(attempted, failed, particle_iters, digests, problems)


class ServeBurst(Workload):
    """The default LoadProfile storm on an autoscaled service, no journal."""

    name = "serve-burst"

    def setup(self) -> None:
        super().setup()
        self.profile = LoadProfile(n_sessions=SERVE_SESSIONS, seed=self.seed)
        self._storm(LoadProfile(n_sessions=1, seed=self.seed))
        self.cleanup()

    def _journal_dir(self) -> Path | None:
        return None

    def _storm(self, profile: LoadProfile) -> RepResult:
        service = OptimizationService(
            n_devices=1,
            autoscale=AutoscalePolicy(min_devices=1, max_devices=SERVE_MAX_DEVICES),
            journal_dir=self._journal_dir(),
        )
        self._service = service
        tickets = asyncio.run(replay(service, profile))
        completed = [t for t in tickets if t.status == "completed"]
        events = service.events_json().encode()
        return RepResult(
            attempted=profile.n_sessions,
            failed=profile.n_sessions - len(completed),
            particle_iters=sum(
                t.result.n_particles * t.result.iterations for t in completed
            ),
            digests={
                "events": hashlib.sha256(events).hexdigest(),
                "results": results_digest([t.result for t in tickets]),
            },
        )

    def rep(self) -> RepResult:
        return self._storm(self.profile)

    def cleanup(self) -> None:
        self._service = None


class ServeDurable(ServeBurst):
    """The same storm with an fsynced write-ahead journal in a fresh dir."""

    name = "serve-durable"

    def _journal_dir(self) -> Path:
        # A fresh, empty directory every time: reopening a used one would
        # silently resume from its checkpoints.
        self._dir = Path(tempfile.mkdtemp(prefix="journal-", dir=self.scratch))
        return self._dir / "wal"

    def cleanup(self) -> None:
        # The service has no close(); release the journal's file handle
        # before its directory goes.
        journal = getattr(self._service, "_journal", None)
        if journal is not None:
            journal.close()
        super().cleanup()
        shutil.rmtree(self._dir)


WORKLOADS = {
    w.name: w for w in (SoloNative, BatchMixed, ServeBurst, ServeDurable)
}
