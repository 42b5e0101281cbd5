"""The traced run must leave the program unchanged.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's modules, imported the way ``run.py`` imports them."""
    sys.path.insert(0, str(HERE))
    run = importlib.import_module("run")
    run.prepare_environment()
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    return run, workloads, tracing, tmp_path_factory.mktemp("perfbench")


def _small(workloads, name, scratch):
    """A workload cut down to a few seconds of work."""
    from repro.serve import LoadProfile

    workload = workloads.WORKLOADS[name](5, scratch)
    workload.setup()
    if name == "batch-mixed":
        workload.jobs = workload.jobs[:8]
    elif name.startswith("serve"):
        workload.profile = LoadProfile(n_sessions=6, seed=5)
    return workload


def test_wrappers_restored_even_on_error(bench):
    _run, _workloads, tracing, _scratch = bench
    table = tracing._patch_table(tracing.Tracer())
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in table]
    with pytest.raises(ZeroDivisionError):
        with tracing.instrument(tracing.Tracer()):
            assert all(
                vars(owner)[attr] is not original
                for owner, attr, original in before
            )
            1 / 0
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, f"{owner}.{attr} not restored"


def test_native_counter_restored_even_on_error(bench):
    _run, _workloads, tracing, _scratch = bench
    from repro.core.engine import EngineRun

    finish = vars(EngineRun)["finish"]
    with pytest.raises(ZeroDivisionError):
        with tracing.native_replays():
            assert vars(EngineRun)["finish"] is not finish
            1 / 0
    assert vars(EngineRun)["finish"] is finish


@pytest.mark.parametrize("name", ["batch-mixed", "serve-durable"])
def test_traced_outputs_equal_untraced(bench, name):
    run, workloads, _tracing, scratch = bench
    workload = _small(workloads, name, scratch)
    plain = run.timed_rep(workload, traced=False)
    traced = run.timed_rep(workload, traced=True)
    assert plain.result.problems == traced.result.problems == []
    assert plain.result.failed == traced.result.failed == 0
    assert traced.result.digests == plain.result.digests
    assert traced.native_replays == plain.native_replays
    if name == "serve-durable":
        # The journal adds records, never decisions.
        burst = workloads.ServeBurst(5, scratch)
        burst.profile = workload.profile
        assert traced.result.digests == burst.rep().digests
        layers = traced.layers
        assert layers["serve.journal.append_n"] > 0
        assert layers["io.fsync_n"] >= layers["serve.journal.append_n"]
        assert layers["reliability.checkpoint.save_n"] > 0
        assert layers["serve.journal.bytes"] > 0


def test_solo_tiers_match_untraced_view(bench, monkeypatch):
    run, workloads, _tracing, scratch = bench
    monkeypatch.setattr(workloads, "SOLO_ITERS", 30)
    workload = _small(workloads, "solo-native", scratch)
    plain = run.timed_rep(workload, traced=False)
    traced = run.timed_rep(workload, traced=True)
    assert traced.result.digests == plain.result.digests
    assert traced.layers["core.engine.native_iters"] == plain.native_replays == 2 * 25
    assert traced.layers["core.engine.ramp_iters"] == 2 * 5
    assert traced.layers["gpusim.fastpath.step_n"] == 2 * 25
    assert traced.layers["gpusim.graph.native_job_frac"] == 1.0


def test_self_times_sum_to_parent_spans(bench):
    _run, _workloads, tracing, _scratch = bench
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(20000))

    inner = tracer.span("inner", lambda: leaf() + leaf())
    outer = tracer.span("outer", lambda: inner() + leaf() + inner())
    outer()
    outer()
    assert tracer.calls["outer"] == 2 and tracer.calls["inner"] == 4
    assert math.isclose(
        sum(tracer.self_s.values()), tracer.root_s, rel_tol=1e-9, abs_tol=1e-12
    )
    assert tracer._stack == []


def test_traced_serve_storm_is_fully_attributed(bench):
    run, workloads, tracing, scratch = bench
    workload = _small(workloads, "serve-burst", scratch)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        workload.rep()
    workload.cleanup()
    assert math.isclose(
        sum(tracer.self_s.values()), tracer.root_s, rel_tol=1e-9, abs_tol=1e-12
    )
    m = tracing.layer_metrics(tracer, tracer.root_s, 0)
    accounted = (
        m["batch.dispatch.construct_s"]
        + m["core.engine.ramp_s"]
        + m["core.engine.native_s"]
        + m["serve.self_s"]
        + m["core.engine.finish_s"]
    )
    assert math.isclose(accounted, tracer.root_s, rel_tol=1e-9)
    assert m["serve.submit_n"] == 6
    assert m["batch.dispatch.construct_n"] == 6
    assert m["core.engine.native_iters"] == 6 * 20
