"""Tests of the benchmark itself: wrapper hygiene, the correctness gate, and
agreement between the printed metrics and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run as bench_cli
import workloads
from spans import Span, Tracer, installed, package_modules, self_times
import wsn_track_sim
from wsn_track_sim import harness, mac, scenario

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def all_bindings():
    """Every name bound in a package module, plus the wrapped method."""
    snap = {(mod.__name__, key): value
            for mod in package_modules() for key, value in vars(mod).items()}
    snap[("MacService", "data_window")] = mac.MacService.__dict__["data_window"]
    return snap


def test_wrappers_restore_every_binding():
    before = all_bindings()
    tracer = Tracer()
    with installed(tracer, workloads.LAYERS):
        assert harness.run is not before[("wsn_track_sim.harness", "run")]
        assert harness.run is wsn_track_sim.run  # the re-export is wrapped too
        assert mac.MacService.data_window is not before[("MacService", "data_window")]
        harness.run(scenario.default_scenario(max_slots=5))
    after = all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"harness.run", "field.deploy", "energy.settle_slot"} <= names
    root = next(i for i, s in enumerate(tracer.spans) if s.name == "harness.run")
    assert all(s.parent == root for s in tracer.spans if s.name == "energy.settle_slot")


def test_wrappers_restored_when_the_body_raises():
    before = all_bindings()
    with pytest.raises(RuntimeError):
        with installed(Tracer(), workloads.LAYERS):
            raise RuntimeError("boom")
    after = all_bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_children():
    spans = [Span("a", -1, 0.0, 10.0), Span("b", 0, 1.0, 4.0),
             Span("c", 1, 2.0, 3.0), Span("d", 0, 5.0, 6.0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_function_without_calls_is_an_error():
    wl = workloads.WORKLOADS["mac-bench"]
    passes = [workloads.Pass("sweep", wall=1.0),
              workloads.Pass("traced", wall=1.0, spans=[Span("harness.bench_run", -1)])]
    with pytest.raises(workloads.BenchError, match="mac.drain_queue"):
        workloads.per_layer(wl, passes)


def test_missing_layer_function_is_an_error(monkeypatch):
    monkeypatch.setattr(workloads, "LAYERS", workloads.LAYERS + (
        workloads.Target("harness.gone", "wsn_track_sim.harness", "_gone"),))
    with pytest.raises(workloads.BenchError, match="_gone"):
        workloads.run_pass(workloads.WORKLOADS["mac-bench"], "traced", (0,), {})


def last_json(capsys):
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_corrupted_digest_counts_as_failed(monkeypatch, capsys):
    real = workloads.load_digests("mac-bench")
    monkeypatch.setattr(workloads, "load_digests",
                        lambda name: {s: "0" * 64 for s in real})
    code = bench_cli.main(["--workload", "mac-bench", "--seed", "0",
                           "--seconds", "0", "--trace", "0"])
    result = last_json(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    code = bench_cli.main(["--workload", "mac-bench", "--seed", "0",
                           "--seconds", "0", "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec[section]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
