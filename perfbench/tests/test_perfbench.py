"""Tests of the benchmark itself, on shortened versions of its workloads."""

from __future__ import annotations

import dataclasses
import json
import signal
import time

import pytest
from repro.metrics.collector import MetricsCollector

from perfbench import layers
from perfbench.calibration import Sampler
from perfbench.run import ROOT, Session, timed_session, traced_session
from perfbench.trace import Tracer, leftover_wrappers, targets
from perfbench.workloads import WORKLOADS, check_oracles, generate, run_once

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Trace groups whose calls the bypass check counts.
BYPASS_GROUPS = ("graph", "execution.sched", "execution.commit", "crypto.sign", "crypto.verify")


def small(name: str, transactions: int = 256):
    return dataclasses.replace(WORKLOADS[name], transactions=transactions)


def inputs(workload, seed):
    _, driver, initial_state = generate(workload, seed)
    return (
        [tx.digest() for tx in driver.transactions],
        list(driver.schedule.times),
        sorted(initial_state.items()),
    )


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    workload = small(name)
    assert inputs(workload, 11) == inputs(workload, 11)
    assert inputs(workload, 12) != inputs(workload, 11)


def test_traced_run_leaves_no_wrapper():
    owners = {id(cls): cls for entries in targets().values() for cls, _ in entries}
    before = {key: dict(vars(cls)) for key, cls in owners.items()}
    tracer = Tracer()
    run_once(small("oxii-contended"), 11, tracer=tracer)
    assert tracer.calls, "the tracer recorded nothing"
    assert leftover_wrappers() == []
    for key, cls in owners.items():
        after = vars(cls)
        assert set(after) == set(before[key]), cls
        assert all(after[name] is value for name, value in before[key].items()), cls


def test_tracer_is_removed_when_the_run_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("summarise failed")

    monkeypatch.setattr(MetricsCollector, "summarise", broken)
    with pytest.raises(RuntimeError, match="summarise failed"):
        run_once(small("oxii-contended"), 11, tracer=Tracer())
    assert leftover_wrappers() == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    # Long enough for commits to land inside the steady-state window.
    session = Session(small(name, transactions=1024), 11)
    end_to_end = timed_session(session, seconds=0)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    per_layer = traced_session(session, seconds=0, units=units, out_dir=tmp_path)
    assert set(per_layer) == set(units)
    assert session.problems == []
    assert all(value > 0 for value in end_to_end.values())
    rows = json.loads((tmp_path / f"{name}-seed11.layers.json").read_text())["rows"]
    assert {row["metric"]: row["unit"] for row in rows} == {
        metric: unit for metric, unit in units.items() if not metric.endswith(".share")
    }
    trace = json.loads((tmp_path / f"{name}-seed11.trace.json").read_text())
    assert trace["spans"]["Environment.step"]["calls"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_bypassed_layers_are_never_called(name):
    workload = small(name)
    tracer = Tracer()
    run_once(workload, 11, tracer=tracer)
    calls = tracer.group_calls()
    assert layers.bypass_violations(tracer, workload.bypassed) == []
    # The groups a workload does not bypass are really exercised, so the
    # zero counts above are not an artefact of tracing nothing.
    for group in BYPASS_GROUPS:
        if group not in workload.bypassed:
            assert calls[group] > 0, group


def test_oracles_catch_a_tampered_end_state():
    rep = run_once(small("oxii-contended"), 11)
    assert check_oracles(rep) == []
    state = rep.handles.peers[0].state
    key = next(iter(state.keys()))
    state.put(key, "tampered")
    assert any("serializability" in problem for problem in check_oracles(rep))


def test_a_repetition_that_differs_fails_the_session():
    session = Session(small("xov-contended"), 11)
    session.repeat()
    session.seed = 12
    session.repeat()
    assert session.failed > 0
    assert any("differs" in problem for problem in session.problems)


def test_sampler_leaves_its_own_time_out_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        begin = time.perf_counter()
        while len(sampler.samples) < 3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    spent = sum(duration for _, duration in sampler.samples)
    assert end - begin - spent <= sampler.elapsed(begin, end) < end - begin
    assert sampler.scale() > 0
