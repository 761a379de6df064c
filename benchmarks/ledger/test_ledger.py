"""Self-test of the perf ledger harness, at ``--quick`` sizing (under a minute).

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py``.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCH = run.load_benchmark()
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        env=run.child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_quick_run_prints_every_metric_with_its_unit():
    proc = ledger("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name, unit in E2E.items():
        printed = re.findall(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s", proc.stdout, re.M)
        assert len(printed) == len(run.WORKLOADS), name
    results = json_lines(proc.stdout)
    assert len(results) == len(run.WORKLOADS)
    for workload, result in zip(run.WORKLOADS, results):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
        if workload.startswith("study-"):
            assert 0.9 <= result["metrics"]["trace.reconciled_ratio"]["value"] <= 1.1
        assert (run.OUT / f"{workload}.result.json").exists()
    paper = results[0]["metrics"]
    assert paper["probes.quic.calls"]["value"] == 0
    assert paper["probes.tcp.calls"]["value"] > 0


def test_trace_zero_line_carries_end_to_end_metrics():
    proc = ledger("--workload", "study-paper", "--quick", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == E2E
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_wrong_pin_fails_every_operation(tmp_path):
    spec = run.STUDY_WORKLOADS["study-paper"][0]
    quick_key = replace(spec, scale=run.QUICK_SCALE).key(run.DEFAULT_SEED)
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({quick_key: "0" * 64}))
    proc = ledger("--workload", "study-paper", "--quick", "--digests", str(digests))
    assert proc.returncode != 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert not line["correct"]
    assert line["attempted"] >= 1 and line["failed"] == line["attempted"]
    assert "failed_ratio 1 " in proc.stdout


def _originals():
    found = {
        (target.owner, target.attr): vars(layers.resolve(target.owner))[target.attr]
        for target in layers.TARGETS
    }
    found[("repro.runner", "run_study_parallel")] = vars(
        layers.resolve("repro.runner")
    )["run_study_parallel"]
    return found


def test_wrappers_are_removed_after_the_traced_rep(tmp_path):
    originals = _originals()
    spec = replace(run.STUDY_WORKLOADS["study-paper"][0], scale=run.QUICK_SCALE)
    tracer = layers.Tracer()
    with tracer.installed(layers.TARGETS), layers.runner_telemetry([]):
        assert _originals() != originals
        tracer.run(lambda: run.study_rep(spec, run.DEFAULT_SEED, 0, tmp_path))
    assert tracer.calls["probes.tcp"] > 0
    assert all(_originals()[key] is original for key, original in originals.items())

    with pytest.raises(RuntimeError):
        with tracer.installed(layers.TARGETS), layers.runner_telemetry([]):
            raise RuntimeError("mid-rep failure")
    assert all(_originals()[key] is original for key, original in originals.items())


def test_pins_agree_with_the_golden_archive():
    pins = json.loads(run.DIGESTS.read_text())
    golden = run.ROOT / "tests" / "data" / "golden_study_scale002_seed20150401.json"
    paper_spec, _ = run.STUDY_WORKLOADS["study-paper"]
    assert paper_spec.scale == 0.02
    assert pins[paper_spec.key(20150401)] == hashlib.sha256(golden.read_bytes()).hexdigest()
    # study-sharded pins the same archive as study-paper: same spec.
    assert run.STUDY_WORKLOADS["study-sharded"][0] == paper_spec
    for seed in (run.DEFAULT_SEED, 7):
        for spec, _ in run.STUDY_WORKLOADS.values():
            assert spec.key(seed) in pins
        for scale, offset, traceroutes in run.SERVE_POINTS:
            assert run.StudySpec(scale, traceroutes=traceroutes).key(seed + offset) in pins


def test_record_refuses_to_overwrite_a_trajectory_entry():
    existing = sorted(run.TRAJECTORY.glob("pr-*.json"))
    assert existing, "no committed trajectory entry"
    number = existing[0].stem.removeprefix("pr-")
    before = existing[0].read_bytes()
    proc = ledger("--record", number)
    assert proc.returncode == 2
    assert "never overwritten" in proc.stderr
    assert existing[0].read_bytes() == before
