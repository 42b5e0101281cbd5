"""Complete run-state capture for checkpoint/resume.

A :class:`RunSnapshot` holds everything a resumed run needs to continue
**bit-identically**: the swarm arrays (raw bytes, not decimal round-trips),
the Philox stream position (counter-based RNG makes a seek exact — see
:meth:`repro.gpusim.rng.ParallelRNG.seek`), the simulated clock with its
per-section totals, the hyper-parameter set including the inertia-schedule
spec, and the stopping criterion's spec plus mutable state.

Serialization is JSON with arrays encoded as base64 raw bytes, so float32
and float64 values survive exactly (JSON decimal text would also round-trip
via repr, but raw bytes make the bit-exactness contract self-evident and
cheap).  Scalars (clock seconds, gbest value) rely on Python's shortest
round-trip float repr, which is exact by construction.

The snapshot intentionally stores *specs*, not pickles: a checkpoint is a
plain versioned document that any build of the library can read, and
restoring never executes arbitrary code.  The price is that only built-in
problems (benchmark names), built-in stop criteria and registry inertia
schedules are serializable — custom callables raise
:class:`~repro.errors.CheckpointError` at capture time, when the caller can
still react.
"""

from __future__ import annotations

import base64
from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.core.parameters import PSOParams
from repro.core.problem import Problem
from repro.core.schedules import _SCHEDULES, InertiaSchedule
from repro.core.stopping import (
    AnyOf,
    MaxIterations,
    StallStop,
    StopCriterion,
    TargetValue,
)
from repro.core.swarm import SwarmState
from repro.errors import CheckpointError

__all__ = [
    "RunSnapshot",
    "capture_live_run",
    "capture_run",
    "ensure_capturable",
    "params_to_spec",
    "params_from_spec",
    "stop_to_spec",
    "stop_from_spec",
]

#: Version of the snapshot *payload* layout (the checkpoint file framing has
#: its own version in the header; see :mod:`repro.reliability.checkpoint`).
SNAPSHOT_VERSION = 1

_SWARM_ARRAYS = ("positions", "velocities", "pbest_positions", "pbest_values")


# -- array codec: raw bytes, bit-exact ---------------------------------------
def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(spec: dict) -> np.ndarray:
    try:
        raw = base64.b64decode(spec["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
        return arr.reshape(tuple(spec["shape"])).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed array in snapshot: {exc}") from exc


# -- spec round-trips ---------------------------------------------------------
def _schedule_to_spec(schedule: InertiaSchedule) -> dict:
    for name, cls in _SCHEDULES.items():
        if type(schedule) is cls:
            return {"name": name, "config": asdict(schedule)}
    raise CheckpointError(
        f"inertia schedule {type(schedule).__name__} is not a registry "
        "schedule and cannot be checkpointed"
    )


def _schedule_from_spec(spec: dict) -> InertiaSchedule:
    from repro.core.schedules import make_schedule

    return make_schedule(spec["name"], **spec["config"])


def params_to_spec(params: PSOParams) -> dict:
    """JSON-safe dictionary of a :class:`PSOParams` (schedules by name)."""
    spec = {
        f.name: getattr(params, f.name)
        for f in fields(PSOParams)
        if f.name != "inertia_schedule"
    }
    if params.inertia_schedule is not None:
        spec["inertia_schedule"] = _schedule_to_spec(params.inertia_schedule)
    else:
        spec["inertia_schedule"] = None
    return spec


def params_from_spec(spec: dict) -> PSOParams:
    """Inverse of :func:`params_to_spec`."""
    spec = dict(spec)
    schedule_spec = spec.pop("inertia_schedule", None)
    schedule = (
        _schedule_from_spec(schedule_spec) if schedule_spec is not None else None
    )
    return PSOParams(inertia_schedule=schedule, **spec)


def stop_to_spec(stop: StopCriterion) -> dict:
    """Serializable spec of a built-in stop criterion (recursive for AnyOf)."""
    if type(stop) is MaxIterations:
        return {"kind": "max_iterations", "config": {"max_iter": stop.max_iter}}
    if type(stop) is TargetValue:
        return {
            "kind": "target_value",
            "config": {"target": stop.target, "tolerance": stop.tolerance},
        }
    if type(stop) is StallStop:
        return {
            "kind": "stall",
            "config": {"patience": stop.patience, "min_delta": stop.min_delta},
        }
    if type(stop) is AnyOf:
        return {
            "kind": "any_of",
            "config": {"members": [stop_to_spec(c) for c in stop.criteria]},
        }
    raise CheckpointError(
        f"stop criterion {type(stop).__name__} is not a built-in and "
        "cannot be checkpointed"
    )


def stop_from_spec(spec: dict) -> StopCriterion:
    """Inverse of :func:`stop_to_spec` (state is loaded separately)."""
    kind = spec.get("kind")
    config = spec.get("config", {})
    if kind == "max_iterations":
        return MaxIterations(int(config["max_iter"]))
    if kind == "target_value":
        return TargetValue(float(config["target"]), float(config["tolerance"]))
    if kind == "stall":
        return StallStop(int(config["patience"]), float(config["min_delta"]))
    if kind == "any_of":
        return AnyOf(tuple(stop_from_spec(m) for m in config["members"]))
    raise CheckpointError(f"unknown stop criterion kind {kind!r} in snapshot")


# -- the snapshot -------------------------------------------------------------
@dataclass
class RunSnapshot:
    """Everything needed to continue an interrupted run bit-identically.

    ``iteration`` counts *completed* iterations: a snapshot taken after
    iteration ``t`` (0-based) has ``iteration == t + 1`` and a resumed run
    continues at loop index ``t + 1``.
    """

    engine: str
    problem: str
    dim: int
    n_particles: int
    max_iter: int
    iteration: int
    record_history: bool
    setup_seconds: float
    params_spec: dict
    rng_state: dict
    clock_state: dict
    stop_spec: dict | None
    stop_state: dict | None
    swarm: SwarmState
    history_state: dict | None
    #: Budget the run was given (``Budget.to_spec()``), or ``None``.  The
    #: state carries wall-clock seconds already consumed so a resumed run
    #: honours the *remaining* deadline.  Optional with defaults so
    #: snapshots written before budgets existed still load.
    budget_spec: dict | None = None
    budget_state: dict | None = None

    # -- serialization ------------------------------------------------------
    def to_payload(self) -> dict:
        swarm = {
            name: _encode_array(getattr(self.swarm, name))
            for name in _SWARM_ARRAYS
        }
        swarm["gbest_value"] = float(self.swarm.gbest_value)
        swarm["gbest_index"] = int(self.swarm.gbest_index)
        swarm["gbest_position"] = _encode_array(self.swarm.gbest_position)
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "engine": self.engine,
            "problem": self.problem,
            "dim": self.dim,
            "n_particles": self.n_particles,
            "max_iter": self.max_iter,
            "iteration": self.iteration,
            "record_history": self.record_history,
            "setup_seconds": self.setup_seconds,
            "params": self.params_spec,
            "rng": self.rng_state,
            "clock": self.clock_state,
            "stop_spec": self.stop_spec,
            "stop_state": self.stop_state,
            "swarm": swarm,
            "history": self.history_state,
            "budget_spec": self.budget_spec,
            "budget_state": self.budget_state,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunSnapshot":
        version = payload.get("snapshot_version")
        if version != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {version!r} "
                f"(this build reads {SNAPSHOT_VERSION})"
            )
        try:
            raw = payload["swarm"]
            swarm = SwarmState(
                positions=_decode_array(raw["positions"]),
                velocities=_decode_array(raw["velocities"]),
                pbest_values=_decode_array(raw["pbest_values"]),
                pbest_positions=_decode_array(raw["pbest_positions"]),
                gbest_value=float(raw["gbest_value"]),
                gbest_index=int(raw["gbest_index"]),
                gbest_position=_decode_array(raw["gbest_position"]),
            )
            return cls(
                engine=str(payload["engine"]),
                problem=str(payload["problem"]),
                dim=int(payload["dim"]),
                n_particles=int(payload["n_particles"]),
                max_iter=int(payload["max_iter"]),
                iteration=int(payload["iteration"]),
                record_history=bool(payload["record_history"]),
                setup_seconds=float(payload["setup_seconds"]),
                params_spec=dict(payload["params"]),
                rng_state=dict(payload["rng"]),
                clock_state=dict(payload["clock"]),
                stop_spec=payload["stop_spec"],
                stop_state=payload["stop_state"],
                swarm=swarm,
                history_state=payload["history"],
                budget_spec=payload.get("budget_spec"),
                budget_state=payload.get("budget_state"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed snapshot payload: {exc}") from exc

    # -- reconstruction helpers ---------------------------------------------
    def make_params(self) -> PSOParams:
        """The :class:`PSOParams` the checkpointed run was using."""
        return params_from_spec(self.params_spec)

    def make_stop(self) -> StopCriterion | None:
        """A fresh stop criterion matching the checkpointed run's spec.

        State is *not* loaded here — ``Engine.optimize(restore=...)`` loads
        it after calling ``reset()``, so the criterion observes the resumed
        iterations exactly as the original would have.
        """
        return stop_from_spec(self.stop_spec) if self.stop_spec else None

    def make_problem(self) -> Problem:
        """Rebuild the benchmark problem the snapshot refers to."""
        return Problem.from_benchmark(self.problem, self.dim)

    def make_budget(self):
        """The :class:`~repro.core.budget.Budget` of the checkpointed run."""
        if self.budget_spec is None:
            return None
        from repro.core.budget import Budget

        return Budget.from_spec(self.budget_spec)

    # -- restore-side checks --------------------------------------------------
    def validate_for(
        self,
        *,
        problem: Problem,
        n_particles: int,
        max_iter: int,
        params: PSOParams,
        record_history: bool,
    ) -> None:
        """Reject resumes whose run shape differs from the capture."""
        if self.iteration >= self.max_iter:
            raise CheckpointError(
                f"snapshot is already complete ({self.iteration}/"
                f"{self.max_iter} iterations); nothing to resume"
            )
        if problem.name != self.problem:
            raise CheckpointError(
                f"snapshot is for problem {self.problem!r}, run provides "
                f"{problem.name!r}"
            )
        if problem.dim != self.dim:
            raise CheckpointError(
                f"snapshot is {self.dim}-dimensional, problem is "
                f"{problem.dim}-dimensional"
            )
        if n_particles != self.n_particles:
            raise CheckpointError(
                f"snapshot has {self.n_particles} particles, run requests "
                f"{n_particles}"
            )
        if max_iter != self.max_iter:
            # max_iter feeds run progress (adaptive velocity, schedules), so
            # changing it would silently alter the remaining trajectory.
            raise CheckpointError(
                f"snapshot budget is {self.max_iter} iterations, run "
                f"requests {max_iter}"
            )
        if params_to_spec(params) != self.params_spec:
            raise CheckpointError(
                "run hyper-parameters differ from the checkpointed ones; "
                "resume with snapshot.make_params()"
            )
        if record_history != self.record_history:
            raise CheckpointError(
                f"snapshot was captured with record_history="
                f"{self.record_history}, run requests {record_history}"
            )

    def apply_to(self, state: SwarmState) -> None:
        """Overwrite a freshly initialised swarm with the captured state.

        Shape *and* dtype must match exactly — a float16-storage engine
        cannot silently absorb a float32 checkpoint (the cast would break
        bit-identity), and vice versa.
        """
        for name in _SWARM_ARRAYS:
            src = getattr(self.swarm, name)
            dst = getattr(state, name)
            if dst.shape != src.shape or dst.dtype != src.dtype:
                raise CheckpointError(
                    f"snapshot array {name!r} is {src.dtype}{src.shape}, "
                    f"engine state is {dst.dtype}{dst.shape}"
                )
            np.copyto(dst, src)
        state.gbest_value = self.swarm.gbest_value
        state.gbest_index = self.swarm.gbest_index
        state.gbest_position = self.swarm.gbest_position.copy()


def ensure_capturable(problem: Problem) -> None:
    """Raise :class:`CheckpointError` if *problem* cannot be snapshotted.

    Called at ``optimize()`` entry when checkpointing is requested, so a
    run with a custom (non-benchmark) objective fails immediately instead
    of at the first due checkpoint mid-run.
    """
    from repro.core.schema import BuiltinEvaluation
    from repro.functions.base import resolve_function

    if not isinstance(problem.evaluator, BuiltinEvaluation):
        raise CheckpointError(
            "only benchmark problems can be checkpointed (custom objectives "
            "cannot be rebuilt from a snapshot document)"
        )
    try:
        resolve_function(problem.name)
    except Exception as exc:
        raise CheckpointError(
            f"problem {problem.name!r} is not a registered benchmark"
        ) from exc


def capture_live_run(run) -> RunSnapshot:
    """Snapshot an in-flight :class:`~repro.core.engine.EngineRun`.

    Captures the run at its current iteration (the iterations completed so
    far) — the periodic checkpoint path and checkpoint-backed cancellation
    (:mod:`repro.serve`) both go through here, so a cancelled job's
    snapshot resumes exactly like a crash-recovery one.  A multi-GPU fleet
    run holds one swarm, stream and clock per device, which one snapshot
    cannot express: it raises :class:`~repro.errors.CheckpointError`.
    """
    if not isinstance(run.state, SwarmState):
        raise CheckpointError(
            f"engine {run.engine.name!r} runs a multi-GPU fleet; a snapshot "
            "holds a single-device run"
        )
    return capture_run(
        engine_name=run.engine.name,
        problem=run.problem,
        params=run.params,
        n_particles=run.n_particles,
        max_iter=run.max_iter,
        iteration=run.iterations_run,
        record_history=run.record_history,
        rng=run.rng,
        clock=run.engine.clock,
        setup_seconds=run.setup_seconds,
        stop=run.stop,
        state=run.state,
        history=run.history,
        budget=run.budget,
        budget_tracker=run.tracker,
    )


def capture_run(
    *,
    engine_name: str,
    problem: Problem,
    params: PSOParams,
    n_particles: int,
    max_iter: int,
    iteration: int,
    record_history: bool,
    rng,
    clock,
    setup_seconds: float,
    stop: StopCriterion | None,
    state: SwarmState,
    history,
    budget=None,
    budget_tracker=None,
) -> RunSnapshot:
    """Snapshot a live run (called by ``Engine.optimize`` between iterations).

    Only benchmark problems (constructed by name) can be captured: a custom
    callable objective cannot be rebuilt from a plain document, so the
    checkpoint would be unusable — fail at capture, not at resume.
    """
    ensure_capturable(problem)

    return RunSnapshot(
        engine=engine_name,
        problem=problem.name,
        dim=problem.dim,
        n_particles=n_particles,
        max_iter=max_iter,
        iteration=iteration,
        record_history=record_history,
        setup_seconds=float(setup_seconds),
        params_spec=params_to_spec(params),
        rng_state={
            "seed": rng.seed,
            "stream_id": rng.stream_id,
            "position": rng.position,
        },
        clock_state={
            "now": float(clock.now),
            "section_totals": dict(clock.section_totals),
        },
        stop_spec=stop_to_spec(stop) if stop is not None else None,
        stop_state=stop.state_dict() if stop is not None else None,
        swarm=state.copy(),
        history_state=(
            {
                "gbest_values": list(history.gbest_values),
                "mean_pbest_values": list(history.mean_pbest_values),
            }
            if history is not None
            else None
        ),
        budget_spec=budget.to_spec() if budget is not None else None,
        budget_state=(
            budget_tracker.state_dict() if budget_tracker is not None else None
        ),
    )
