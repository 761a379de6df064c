#!/usr/bin/env python3
"""Perf ledger: end-to-end and per-layer timing of study and serve workloads.

One command measures every workload, each in a fresh subprocess::

    python benchmarks/ledger/run.py [--seed S] [--quick] [--record N]

and one workload at a time, printing one JSON result line last::

    python benchmarks/ledger/run.py --workload study-paper --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the same way, then runs one traced rep with
timing wrappers installed around each layer (:mod:`layers`) and reports
the per-layer metrics.  Every output is checked against the sha256 pins
in ``digests.json``; a seed without a pin falls back to every run of a
spec agreeing with the untimed warm-up.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRAJECTORY = HERE / "trajectory"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 20150401
#: Fresh set-up subprocesses per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Timed reps per run even when ``--seconds`` is shorter.
MIN_REPS = 3
#: Reported times are seconds on a reference machine whose round of
#: the calibration loop takes this long (see ``SpeedReference``).
REFERENCE_ROUND_S = 0.1
QUICK_SCALE = 0.01
QUICK_SERVE_SUBMISSIONS = 4
#: Load generator sizing for a 2-core box: one generator process, two
#: closed-loop clients, a two-worker pool running two studies at once.
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_MAX_CONCURRENT = 2
SERVE_BURSTS = 4


@dataclass(frozen=True)
class StudySpec:
    """Everything that determines a study's archive (not how it runs)."""

    scale: float
    quic: bool = False
    faults: str | None = None
    chaos_seed: int = 0
    traceroutes: bool = True

    def key(self, seed: int) -> str:
        """The ``digests.json`` key of this spec at ``seed``."""
        return (
            f"scale={self.scale:g} seed={seed} traceroutes={int(self.traceroutes)} "
            f"quic={int(self.quic)} faults={self.faults or 'none'} "
            f"chaos_seed={self.chaos_seed}"
        )

    def run_kwargs(self, seed: int) -> dict:
        return {
            "scale": self.scale,
            "seed": seed,
            "quic": self.quic,
            "faults": self.faults,
            "chaos_seed": self.chaos_seed,
            "traceroutes": self.traceroutes,
        }


#: Study workloads: (spec, workers).  study-sharded runs study-paper's
#: spec, so it must reproduce study-paper's archive exactly.
STUDY_WORKLOADS = {
    "study-paper": (StudySpec(0.02), 0),
    "study-quic-reroute": (StudySpec(0.02, quic=True, faults="reroute", chaos_seed=7), 0),
    "study-sharded": (StudySpec(0.02), 2),
}
#: serve-mixed submissions, cycled: (scale, seed offset, traceroutes).
#: Two worlds, so each first submission misses the server's world cache
#: and every later one hits.  Three points of distinct cost put the
#: latency median inside the middle point's cluster rather than in a
#: gap between two clusters, where it would jump from run to run.
SERVE_POINTS = ((0.02, 0, True), (0.02, 0, False), (0.01, 1, True))
WORKLOADS = (*STUDY_WORKLOADS, "serve-mixed")

#: Imports the study stack, builds the world and runs discovery: what
#: every study pays before its first probe.
SETUP_CHILD = """\
import sys
import repro.study
from repro.core.discovery import PoolDiscovery
from repro.scenario.internet import SyntheticInternet
from repro.scenario.parameters import params_for_scale
world = SyntheticInternet(params_for_scale(float(sys.argv[1]), int(sys.argv[2])))
PoolDiscovery(world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()).run()
print("ready", flush=True)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def inspect_archive(traces: bytes, traceroutes: bytes) -> tuple[str, int]:
    """``(digest, probe count)`` of one archive's two datasets.

    The digest covers the canonical ``{"traces", "campaign"}`` JSON —
    sorted keys, compact separators — that the golden-archive tests
    pin.  Probes are four per outcome row (five when the row carries a
    QUIC measurement) plus one per traceroute.
    """
    doc = {"traces": json.loads(traces), "campaign": json.loads(traceroutes)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    rows = [row for trace in doc["traces"]["traces"] for row in trace["outcomes"]]
    probes = sum(5 if len(row) > 9 else 4 for row in rows) + len(doc["campaign"]["paths"])
    return hashlib.sha256(blob).hexdigest(), probes


def read_archive(directory: Path) -> tuple[str, int]:
    return inspect_archive(
        (directory / "traces.json").read_bytes(),
        (directory / "traceroutes.json").read_bytes(),
    )


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of a sample list."""
    if len(samples) >= 2:
        p25, median, p75 = statistics.quantiles(samples, n=4)
    else:
        p25 = median = p75 = samples[0]
    return {"median": median, "p25": p25, "p75": p75, "n": len(samples)}


def metric(value: float, samples: list[float] | None = None) -> dict:
    return {"value": value, **summarize(samples if samples else [value])}


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def check_regression_module():
    """The CI gate's module: its calibration loop is imported, never copied."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import check_regression
    finally:
        sys.path.pop(0)
    return check_regression


class SpeedReference:
    """Scales wall times to a reference machine speed.

    Shared cores run this code up to ~1.8x slower while neighbours
    contend for them, switching within a second, and their contention-
    free speed drifts over spans longer than a whole run, which medians
    of reps cannot absorb.  Contention only ever slows a round, so the
    best of the ``ROUNDS_PER_SIDE`` rounds of the CI gate's fixed
    calibration loop timed on each side of an operation is the
    machine's speed at that time.  Operations are reported in
    reference seconds: ``wall × REFERENCE_ROUND_S / best round``.
    """

    ROUNDS_PER_SIDE = 2

    def __init__(self) -> None:
        self._workload = check_regression_module()._calibration_workload
        self.rounds: list[float] = []
        self.begin()

    def _best_round(self) -> float:
        times = []
        for _ in range(self.ROUNDS_PER_SIDE):
            started = time.perf_counter()
            self._workload()
            times.append(time.perf_counter() - started)
        self.rounds += times
        return min(times)

    def begin(self) -> None:
        """Time fresh rounds to stand before the next operation."""
        self._before = self._best_round()

    def scale(self, wall: float) -> float:
        """Reference seconds of an operation that just took ``wall``."""
        before, after = self._before, self._best_round()
        self._before = after
        return wall * REFERENCE_ROUND_S / min(before, after)


def setup_sample(scale: float, seed: int) -> float:
    """Seconds from spawn until a fresh process has built and discovered."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, repr(scale), str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up subprocess failed with code {proc.returncode}")
    return elapsed


class Checker:
    """Counts operations whose archive digest misses its reference.

    A spec's reference is its pin, or else the first digest checked for
    it, so a seed without a pin still requires every run to agree.
    """

    def __init__(self, pins: dict[str, str]) -> None:
        self.pins = pins
        self.references: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, key: str, digest: str, counted: bool = True) -> bool:
        """Compare one archive; ``counted=False`` for untimed runs."""
        expected = self.references.setdefault(key, self.pins.get(key, digest))
        ok = digest == expected
        if counted:
            self.attempted += 1
            self.failed += not ok
        if not ok:
            self.problems.append(f"digest {digest[:12]} != {expected[:12]} for {key}")
        return ok

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


# ----------------------------------------------------------------------
# Study workloads
# ----------------------------------------------------------------------
def study_rep(spec: StudySpec, seed: int, workers: int, directory: Path) -> tuple[float, object]:
    """One timed ``Study.run`` + ``save``; returns ``(seconds, study)``."""
    from repro.study import Study

    started = time.perf_counter()
    study = Study.run(workers=workers, **spec.run_kwargs(seed))
    study.save(directory)
    return time.perf_counter() - started, study


def run_study_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool, checker: Checker) -> dict:
    spec, workers = STUDY_WORKLOADS[name]
    if quick:
        spec = replace(spec, scale=QUICK_SCALE)
    key = spec.key(seed)
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    reference = SpeedReference()
    setup_wall, setup = [], []
    for _ in range(1 if quick else SETUP_SAMPLES):
        setup_wall.append(setup_sample(spec.scale, seed))
        setup.append(reference.scale(setup_wall[-1]))

    # Untimed warm-up, sequential: imports and lazy caches settle, and
    # its archive is the reference when the seed has no pin — so
    # study-sharded checks sharded == sequential on every seed.
    study_rep(spec, seed, 0, work)
    digest, probes = read_archive(work)
    checker.check(key, digest, counted=False)

    walls: list[float] = []
    latencies: list[float] = []
    reference.begin()
    started = time.perf_counter()
    while len(latencies) < (1 if quick else MIN_REPS) or (
        not quick and time.perf_counter() - started < seconds
    ):
        gc.collect()
        elapsed, _ = study_rep(spec, seed, workers, work)
        walls.append(elapsed)
        latencies.append(reference.scale(elapsed))
        checker.check(key, read_archive(work)[0])
    median = statistics.median(latencies)
    rates = [probes / latency for latency in latencies]
    result = {
        "end_to_end": {
            "setup_s": metric(statistics.median(setup), setup),
            "study_latency_p50_s": metric(median, latencies),
            "probes_per_s": metric(statistics.median(rates), rates),
            "peak_rss_mb": metric(peak_rss_mb()),
        },
        "wall": {"setup_s": summarize(setup_wall), "study_s": summarize(walls)},
        "probes_per_study": probes,
    }
    if trace:
        result.update(
            traced_study_rep(name, spec, seed, workers, work, median, reference, checker)
        )
    result["calibration_round_s"] = summarize(reference.rounds)
    result["samples"] = {"wall_s": walls, "calibration_round_s": reference.rounds}
    return result


def traced_study_rep(name, spec, seed, workers, work, untraced_median, reference, checker) -> dict:
    from layers import Tracer, runner_telemetry, targets_for

    gc.collect()
    tracer = Tracer()
    telemetry: list = []
    reference.begin()
    with tracer.installed(targets_for(sharded=workers > 0)), runner_telemetry(telemetry):
        wall, (_, study) = tracer.run(lambda: study_rep(spec, seed, workers, work))
    traced = reference.scale(wall)
    checker.check(spec.key(seed), read_archive(work)[0], counted=False)
    (OUT / f"{name}.trace.json").write_text(json.dumps(tracer.trace_document(name)))

    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced / untraced_median - 1
    network = study.world.network
    sequential = workers == 0
    values["netsim.packets_sent"] = network.counters.sent if sequential else 0
    values["netsim.delivered_ratio"] = (
        network.counters.delivered / network.counters.sent
        if sequential and network.counters.sent
        else 0.0
    )
    values["netsim.events_dispatched"] = network.scheduler.dispatched if sequential else 0
    values.update(runner_values(telemetry[0] if telemetry else None))
    values.update(serve_values(None))
    return {
        "per_layer": values,
        "layers": tracer.table(),
        "traced_wall_s": wall,
        "unattributed_s": tracer.unattributed_s,
    }


def runner_values(telemetry) -> dict:
    """Shard timing of one sharded study (zeros for a sequential one)."""
    if telemetry is None or not telemetry.shards:
        return {
            "runner.shard_busy_s": 0.0,
            "runner.max_shard_s": 0.0,
            "runner.worker_utilization": 0.0,
            "runner.overhead_s": 0.0,
            "runner.retries": 0,
        }
    busy = sum(record.elapsed for record in telemetry.shards)
    wall = telemetry.wall_seconds
    workers = telemetry.workers
    return {
        "runner.shard_busy_s": busy,
        "runner.max_shard_s": max(record.elapsed for record in telemetry.shards),
        "runner.worker_utilization": busy / (workers * wall),
        "runner.overhead_s": wall - busy / workers,
        "runner.retries": telemetry.total_retries,
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve_values(measured: dict | None) -> dict:
    names = (
        "serve.submit_p50_ms",
        "serve.queue_wait_p50_s",
        "serve.world_cache.hits",
        "serve.world_cache.misses",
        "serve.rejected",
        "serve.artifact_fetch_p50_ms",
    )
    return {name: (measured or {}).get(name, 0) for name in names}


def histogram_median(entry: dict | None) -> float:
    """Median estimated from a fixed-bucket histogram snapshot entry
    (linear within the bucket, clamped to the observed min/max)."""
    if not entry or not entry["count"]:
        return 0.0
    half = entry["count"] / 2
    bounds = entry["bounds"]
    seen = 0
    for index, bucket in enumerate(entry["buckets"]):
        if bucket and seen + bucket >= half:
            low = max(bounds[index - 1] if index else 0.0, entry["min"])
            high = min(bounds[index] if index < len(bounds) else entry["max"], entry["max"])
            return low + (high - low) * (half - seen) / bucket
        seen += bucket
    return entry["max"]


def latency_by_point(records: list[dict]) -> dict[str, list[float]]:
    by_point: dict[str, list[float]] = {}
    for record in records:
        if "latency_s" in record:
            submission = record["submission"]
            by_point.setdefault(submission["spec"].key(submission["seed"]), []).append(
                record["latency_s"]
            )
    return by_point


def run_serve_workload(seed: int, seconds: float, trace: bool, quick: bool, checker: Checker) -> dict:
    from serve_load import ServerProcess, closed_loop, fetch_archives, request_json

    work = OUT / "serve-mixed"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stderr_path = work / "server.stderr"
    submissions = [
        {
            "spec": StudySpec(scale, traceroutes=traceroutes),
            "seed": seed + offset,
            "params": {"scale": scale, "seed": seed + offset, "traceroutes": traceroutes},
        }
        for scale, offset, traceroutes in SERVE_POINTS
    ]
    reference = SpeedReference()
    boot_wall, boots = [], []
    server = None
    ok = False
    try:
        for index in range(1 if quick else SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = ServerProcess(
                work / f"data-{index}", stderr_path, child_env(), SERVE_WORKERS, SERVE_MAX_CONCURRENT
            )
            boot_wall.append(server.boot_s)
            boots.append(reference.scale(server.boot_s))
        # Served studies overlap, so they cannot each be bracketed by
        # calibration rounds.  The loop runs in bursts instead: a burst
        # stops submitting at its deadline, lets its studies finish,
        # and is then bracketed as one operation whose scale factor its
        # studies share; the latency median filters a mis-scaled burst.
        draw = itertools.cycle(submissions)
        if quick:
            draw = itertools.islice(draw, QUICK_SERVE_SUBMISSIONS)
        records, loop_wall, scaled_wall = [], 0.0, 0.0
        for _ in range(1 if quick else SERVE_BURSTS):
            deadline = None if quick else time.monotonic() + seconds / SERVE_BURSTS
            burst, wall = asyncio.run(closed_loop(server.port, draw, SERVE_CLIENTS, deadline))
            scaled = reference.scale(wall)
            for record in burst:
                record["speed"] = scaled / wall
            records += burst
            loop_wall += wall
            scaled_wall += scaled
        asyncio.run(fetch_archives(server.port, records))
        _, served_metrics = asyncio.run(request_json(server.port, "GET", "/metrics"))
        ok = True
    finally:
        if server is not None:
            server.stop()
        if not ok:
            print(f"serve-mixed failed; server stderr kept in {stderr_path}", file=sys.stderr)
    stderr_path.unlink(missing_ok=True)

    probes = 0
    for record in records:
        key = record["submission"]["spec"].key(record["submission"]["seed"])
        if record["submit_status"] != 202:
            checker.fail(f"submit returned {record['submit_status']} for {key}")
        elif record.get("status") != "complete":
            checker.fail(f"run {record.get('run_id')} ended {record.get('status')} for {key}")
        elif None in record["archive"]:
            checker.fail(f"run {record['run_id']} archive not served for {key}")
        else:
            digest, count = inspect_archive(*record["archive"])
            if checker.check(key, digest):
                probes += count
    walls = [r["latency_s"] for r in records if "latency_s" in r]
    latencies = [r["latency_s"] * r["speed"] for r in records if "latency_s" in r]
    if not latencies:
        raise RuntimeError("serve-mixed completed no study")
    counters = served_metrics["metrics"]["counters"]
    histograms = served_metrics["metrics"].get("histograms", {})
    fetches = [r["fetch_ms"] for r in records if "fetch_ms" in r]
    measured = {
        "serve.submit_p50_ms": statistics.median(r["submit_ms"] for r in records),
        "serve.queue_wait_p50_s": histogram_median(histograms.get("serve.queue_wait_seconds")),
        "serve.world_cache.hits": counters.get("serve.world_cache.hits", 0),
        "serve.world_cache.misses": counters.get("serve.world_cache.misses", 0),
        "serve.rejected": sum(r["submit_status"] == 429 for r in records),
        "serve.artifact_fetch_p50_ms": statistics.median(fetches) if fetches else 0.0,
    }
    result = {
        "end_to_end": {
            "setup_s": metric(statistics.median(boots), boots),
            "study_latency_p50_s": metric(statistics.median(latencies), latencies),
            "probes_per_s": metric(probes / scaled_wall),
            "peak_rss_mb": metric(peak_rss_mb()),
        },
        "wall": {"setup_s": summarize(boot_wall), "study_s": summarize(walls)},
        "calibration_round_s": summarize(reference.rounds),
        "samples": {"wall_s": walls, "calibration_round_s": reference.rounds},
        "loop_wall_s": loop_wall,
        "studies_completed": len(latencies),
        "latency_by_point": {
            key: summarize(samples) for key, samples in latency_by_point(records).items()
        },
    }
    if trace:
        from layers import Tracer

        # The studies run inside the server's pool workers, out of the
        # ledger's reach: only the client-side serve.* layer is measured.
        values = Tracer().metrics()
        values.update(
            {
                "trace.overhead_ratio": 0.0,
                "netsim.packets_sent": 0,
                "netsim.delivered_ratio": 0.0,
                "netsim.events_dispatched": 0,
            }
        )
        values.update(runner_values(None))
        values.update(serve_values(measured))
        result["per_layer"] = values
        result["layers"] = []
    return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_one(args, bench: dict) -> int:
    """Measure one workload; the last stdout line is the JSON result."""
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}.result.json"
    result_path.unlink(missing_ok=True)
    pins = json.loads(Path(args.digests).read_text())
    checker = Checker(pins)
    if args.workload == "serve-mixed":
        result = run_serve_workload(args.seed, args.seconds, args.trace, args.quick, checker)
    else:
        result = run_study_workload(
            args.workload, args.seed, args.seconds, args.trace, args.quick, checker
        )
    correct = not checker.problems and checker.failed == 0
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "correct": correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "problems": checker.problems,
            "units": units,
        }
    )
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))

    print(f"== {args.workload} (seed {args.seed})")
    for problem in checker.problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        f"  failed_ratio {checker.failed / max(checker.attempted, 1):g} "
        f"({checker.failed}/{checker.attempted})"
    )
    print_end_to_end(result, units)
    if args.trace:
        print_layers(result)
    section = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else {
        name: entry["value"] for name, entry in result["end_to_end"].items()
    }
    line = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def print_end_to_end(result: dict, units: dict) -> None:
    for name, entry in result["end_to_end"].items():
        print(
            f"  {name:<22} {entry['value']:>12.4f} {units[name]:<5} "
            f"median {entry['median']:.4f}  p25 {entry['p25']:.4f}  "
            f"p75 {entry['p75']:.4f}  n={entry['n']}"
        )
    wall = result["wall"]
    print(
        f"  (unscaled wall: setup median {wall['setup_s']['median']:.4f} s, study median "
        f"{wall['study_s']['median']:.4f} s; calibration round median "
        f"{result['calibration_round_s']['median']:.4f} s vs reference {REFERENCE_ROUND_S} s)"
    )


def print_layers(result: dict) -> None:
    if "traced_wall_s" in result:
        values = result["per_layer"]
        print(
            f"  traced rep {result['traced_wall_s']:.3f} s: "
            f"trace.overhead_ratio {values['trace.overhead_ratio']:.3f}, "
            f"trace.reconciled_ratio {values['trace.reconciled_ratio']:.3f}, "
            f"unattributed {result['unattributed_s']:.3f} s"
        )
    for row in result["layers"]:
        print(
            f"    {row['layer']:<22} {row['self_s']:>9.4f} s {row['share']:>7.1%} "
            f"{row['calls']:>9} calls"
        )
    # Everything the table does not already show, when measured.
    for name, value in result["per_layer"].items():
        if value and not name.endswith((".self_s", ".calls")) and not name.startswith("trace."):
            print(f"    {name:<30} {value:>12.4f} {result['units'][name]}")


def layer_table_markdown(workload: str, rows: list[dict]) -> str:
    lines = [
        f"### {workload}",
        "",
        "| layer | self s | share | calls |",
        "|---|---:|---:|---:|",
    ]
    lines += [
        f"| {row['layer']} | {row['self_s']:.4f} | {row['share']:.1%} | {row['calls']} |"
        for row in rows
    ]
    return "\n".join(lines)


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args, bench: dict) -> int:
    """Every workload in a fresh subprocess, one after another."""
    record_path = TRAJECTORY / f"pr-{args.record}.json" if args.record is not None else None
    if record_path is not None and record_path.exists():
        print(f"{record_path} exists; trajectory entries are never overwritten", file=sys.stderr)
        return 2
    results: dict[str, dict] = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1",
            "--digests", str(args.digests),
        ] + (["--quick"] if args.quick else [])
        proc = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        result_path = OUT / f"{name}.result.json"
        if proc.returncode != 0 or not result_path.exists():
            print(f"  {name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
        if result_path.exists():
            results[name] = json.loads(result_path.read_text())
    if record_path is not None and status == 0:
        record(record_path, args, results)
    print(f"ledger: {len(results)}/{len(WORKLOADS)} workloads, {'ok' if status == 0 else 'FAILED'}")
    return status


def record(path: Path, args, results: dict) -> None:
    entry = {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_seconds": check_regression_module().calibration_seconds(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {
            name: {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "end_to_end": {
                    metric_name: {**value, "unit": result["units"][metric_name]}
                    for metric_name, value in result["end_to_end"].items()
                },
                "per_layer": result.get("per_layer", {}),
                "layers": result.get("layers", []),
            }
            for name, result in results.items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "x") as handle:
        handle.write(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"trajectory entry written to {path}")


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="measure one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="measured-phase length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke sizing: scale {QUICK_SCALE}, 1 rep, "
                             f"{QUICK_SERVE_SUBMISSIONS} served studies")
    parser.add_argument("--digests", default=str(DIGESTS), help="pinned archive digests")
    parser.add_argument("--record", type=int, metavar="N",
                        help="write trajectory/pr-N.json (refuses to overwrite)")
    parser.add_argument("--table", metavar="TRAJECTORY_JSON",
                        help="print a trajectory entry's layer tables as markdown")
    args = parser.parse_args(argv)

    if args.table:
        entry = json.loads(Path(args.table).read_text())
        print("\n\n".join(
            layer_table_markdown(name, workload["layers"])
            for name, workload in entry["workloads"].items()
            if workload["layers"]
        ))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    # Keep the temp files of the program's process pools (forkserver
    # sockets) inside the checkout, unless that would push a socket
    # path (TMPDIR + ~32 bytes) past the 107-byte AF_UNIX limit.
    scratch_tmp = OUT / "tmp"
    if len(str(scratch_tmp)) <= 75:
        scratch_tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(scratch_tmp)
    if args.workload is None:
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
