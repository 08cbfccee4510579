"""Tests of the benchmark itself, on small configs of all three workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import catalog, run, workloads
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "flower-steady": dataclasses.replace(
        workloads.WORKLOADS["flower-steady"],
        config=workloads.flower_steady_config(population=60, duration_hours=1.0),
        subseeds=2,
    ),
    "cloud-overload": dataclasses.replace(
        workloads.WORKLOADS["cloud-overload"],
        config=workloads.cloud_overload_config(population=30, duration_hours=0.25),
        subseeds=2,
    ),
    "sharded-scale": dataclasses.replace(
        workloads.WORKLOADS["sharded-scale"],
        config=workloads.sharded_scale_config(population=400, duration_hours=0.25),
        subseeds=2,
    ),
}


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", SMALL)
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_measured_run_prints_every_metric_and_passes_its_checks(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1"]) == 0
    out = capsys.readouterr().out
    for metric in catalog.END_TO_END:
        assert re.search(rf"^  {re.escape(metric.name)} +\S+ {re.escape(metric.unit)}",
                         out, re.M), metric.name
    assert "checks: passed" in out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3  # two seeds and one repeat
    assert list(result["metrics"]) == [m.name for m in catalog.GATED]
    for metric in catalog.GATED:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert entry["value"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_matches_untraced_and_reports_every_layer(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    assert "fingerprint (traced = untraced)" in out
    result = _last_json(out)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in catalog.PER_LAYER]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sim.self_s"] > 0 and metrics["net.self_s"] > 0
    assert metrics["cdn.queries"] > 0
    assert metrics["metrics.records"] > 0
    if name == "cloud-overload":
        assert metrics["swarm.transfers"] > 0
        assert metrics["workload.openloop.self_s"] > 0
        assert metrics["cdn.search.answered_ratio"] > 0
    if name == "sharded-scale":
        assert metrics["shard.windows"] > 0
        assert metrics["shardnet.self_s"] > 0
    if name == "flower-steady":
        assert metrics["dht.lookups.fix_finger"] > 0
        assert metrics["swarm.transfers"] == 0


def test_repeated_seed_repeats_its_fingerprint():
    workload = SMALL["flower-steady"]
    first = workloads.simulate(workload, 5)
    second = workloads.simulate(workload, 5)
    assert first.fingerprint() == second.fingerprint()
    assert first.fingerprint() != workloads.simulate(workload, 6).fingerprint()


def test_simulate_reads_what_a_plain_run_of_the_world_does():
    from repro.experiments.runner import build_world

    workload = SMALL["cloud-overload"]
    output = workloads.simulate(workload, 4)
    world = build_world(workload.protocol, workload.config, 4)
    world.run()
    assert output.events == world.sim.events_executed
    assert output.kind_counts == dict(world.network.kind_counts)
    assert output.terminal == len(world.system.metrics.records)


def test_accounting_check_catches_a_lost_query():
    output = workloads.simulate(SMALL["cloud-overload"], 1)
    assert output.accounting_error() is None
    output.issued += 1
    assert "issued" in output.accounting_error()


def test_accounting_check_fails_on_a_query_open_beyond_the_grace():
    output = workloads.simulate(SMALL["cloud-overload"], 1)
    assert output.accounting_error() is None
    stale = output.horizon_ms - workloads.ACCOUNTING_GRACE_MS - 1.0
    output.open_started.append(stale)
    output.issued += 1
    assert "1 open longer than the grace" in output.accounting_error()


def test_tracer_restores_every_patched_attribute():
    from repro.net.transport import NetworkNode
    from repro.sim import sharded
    from repro.sim.engine import Simulator

    before = (Simulator.run, NetworkNode.rpc, sharded.run_windows)
    with Tracer().installed():
        assert Simulator.run is not before[0]
    assert (Simulator.run, NetworkNode.rpc, sharded.run_windows) == before


def test_spans_are_written_with_their_names(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        workloads.simulate(SMALL["flower-steady"], 2)
    stem = tracer.write(str(tmp_path), "flower")
    header = json.load(open(stem + ".json"))
    assert header["spans"] == len(tracer.start) > 0
    assert os.path.getsize(stem + ".bin") == header["spans"] * (4 + 8 + 8 + 4 + 4)
    assert {"layer": "sim", "label": "run", "tag": None} in header["names"]


def test_every_outcome_has_a_per_layer_metric():
    from repro.metrics.collector import ALL_OUTCOMES

    assert set(catalog.OUTCOMES) == ALL_OUTCOMES


def test_benchmark_json_is_generated_from_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    # SMALL keeps each workload's name and why, all the document lists.
    assert document == catalog.benchmark_json(list(SMALL.values()))
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    for metric in document["end_to_end"] + document["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]


def test_without_the_program_the_benchmark_fails_and_prints_nothing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flower-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": os.environ.get("PATH", "")},
    )
    assert done.returncode != 0
    assert done.stdout == ""
