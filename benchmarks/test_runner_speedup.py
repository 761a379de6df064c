"""Parallel runner — wall-clock speedup of sharded execution.

Runs the same study sequentially and sharded across four worker
processes, at a fixed (scale, seed), and records both wall-clock
times.  Also re-asserts the determinism contract under the bench
scale: the two runs must be bit-identical, or the speedup number is
meaningless.

Expectations are deliberately loose: shard granularity is
``(vantage, batch)``, so the critical path is the largest shard plus
per-worker world-build cost, and small populations leave limited room.
The test asserts the parallel run is no *slower* than sequential by
more than a small tolerance; the printed ratio is the artefact.
"""

import time

from repro.obs import RunTelemetry
from repro.runner import run_study_parallel
from repro.spec import StudySpec
from repro.study import Study

BENCH_SEED = 20150401
SPEEDUP_SCALE = 0.05
WORKERS = 4


def test_sharded_speedup(benchmark):
    def run_both():
        t0 = time.perf_counter()
        sequential = Study.run(scale=SPEEDUP_SCALE, seed=BENCH_SEED)
        t1 = time.perf_counter()
        telemetry = RunTelemetry()
        traces, campaign = run_study_parallel(
            StudySpec(scale=SPEEDUP_SCALE, seed=BENCH_SEED),
            workers=WORKERS,
            targets=sequential.traces.server_addrs,
            # Timing only: worker-side metric registries would tax the
            # parallel side of a comparison the sequential side escapes.
            telemetry=telemetry,
            observe=False,
        )
        t2 = time.perf_counter()
        return sequential, traces, campaign, t1 - t0, t2 - t1, telemetry

    sequential, traces, campaign, seq_s, par_s, telemetry = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    ratio = seq_s / par_s if par_s > 0 else float("inf")
    print(
        f"\nsequential {seq_s:.1f}s, workers={WORKERS} {par_s:.1f}s "
        f"(speedup x{ratio:.2f})"
    )
    # Per-shard timing: where the parallel wall-clock actually went.
    for line in telemetry.summary_lines():
        print(line)

    # The speedup claim is only meaningful over identical work.
    assert traces.to_dict() == sequential.traces.to_dict()
    assert campaign.to_dict() == sequential.campaign.to_dict()
    # Sharding must never cost more than it saves on a multi-core box;
    # the tolerance absorbs pool start-up and per-worker world builds.
    assert par_s < seq_s * 1.25
