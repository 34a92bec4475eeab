"""Tests of the benchmark itself: seeded inputs, metric names, smoke runs.

Run with the rest of the suite from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SERVE = [name for name in WORKLOADS if name != "paper-fast"]


def _input_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    return workload.input_digest(workload.setup(seed, "tiny"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert _input_digest(name, 7) == _input_digest(name, 7)


@pytest.mark.parametrize("name", SERVE)
def test_another_seed_changes_the_inputs(name):
    assert _input_digest(name, 7) != _input_digest(name, 8)


def test_faults_traffic_matches_decode_traffic():
    decode = WORKLOADS["serve-decode"].setup(5, "tiny")["table"]
    faults = WORKLOADS["serve-faults"].setup(5, "tiny")["table"]
    for column in ("request_id", "arrival_s", "spec_idx", "valid_len", "output_len"):
        assert (getattr(decode, column) == getattr(faults, column)).all()


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--seed", "3", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


#: Per-layer metrics each traced smoke run must see move.
TRACED_NONZERO = {
    "paper-fast": ("core.simulate_calls", "core.simulate_s", "experiments.sweep_s"),
    "serve-faults": (
        "serving.devices.prime_s",
        "serving.engine_s",
        "serving.batches",
        "serving.retries",
    ),
}


@pytest.mark.parametrize("name", list(TRACED_NONZERO))
def test_traced_smoke_run_prints_every_per_layer_metric(name):
    proc = _run("--workload", name, "--seed", "3", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(result["metrics"][m]["value"] > 0 for m in TRACED_NONZERO[name])


def _child_output(passes):
    return {
        "setup_s": 0.5,
        "passes": passes,
        "input_digest": "inputs",
        "peak_rss_mb": 100.0,
        "env": {},
    }


def test_a_failing_experiment_is_a_failed_operation_not_a_crash(monkeypatch):
    from repro.experiments import registry

    def broken(**kwargs):
        raise RuntimeError("broken on purpose")

    monkeypatch.setitem(
        registry.EXPERIMENTS, "broken", ({}, SimpleNamespace(run=broken))
    )
    workload = WORKLOADS["paper-fast"]
    state = workload.setup(0, "tiny")
    state["names"].append("broken")
    passes = child.run_passes(workload, state, 0.0)
    assert set(passes[0]["errors"]) == {"broken"}
    assert "fidelity.speedup_err" in passes[0]["extra"]

    args = Namespace(workload="paper-fast", seed=0, size="tiny", trace=0)
    record, result = run.summarize_run(BENCH, args, [_child_output(passes)], [False])
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert record["failed_frac"] == pytest.approx(1 / 3)


def test_a_run_whose_passes_all_raise_reports_its_failures():
    raised = _child_output([{"seconds": 1.0, "raised": True}])
    args = Namespace(workload="serve-decode", seed=0, size="tiny", trace=0)
    record, result = run.summarize_run(BENCH, args, [raised], [False])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}
    assert "throughput_per_s" in record["unmeasured"]


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run("--workload", "serve-decode", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
