"""CI gate: observability must be cheap when off, recording cheap when on.

The :mod:`repro.obs` layer promises that disabled instrumentation
costs one falsey-predicate per call site.  A build cannot time itself
against a hypothetical uninstrumented twin, so this check pins the
contract from the other side: it times the same small sequential study
with observability **disabled** and **enabled**.  If the disabled runs
are more than ``--budget`` (default 5 %) slower than the enabled ones,
the gating is broken or inverted — a disabled registry is doing real
work — and the check fails.  The enabled-mode cost is reported for the
record but not gated: counting ~1.5 M events is allowed to cost
something.

Recording gets its own gate: ``record="epoch"`` turns on the study's
event log — one context switch, one span and a handful of events per
measurement epoch — so it must cost at most ``--record-budget``
(default 5 %) over a run with recording off.  Spans and events are one
record stream behind one switch, so a single gate covers both.

Both gates compare paired runs in one process, in CPU time.  Each of
``--pairs`` rounds (default 7) runs the three configurations back to
back, in an order that reverses from one round to the next, and yields
one ratio per gate: disabled over enabled, and recording over
disabled.  A gate reads the median of its ratios.  Wall-clock best-of
timings in a fixed order followed the drift of a shared machine more
than the cost under test; CPU time leaves out the time the process
waits, and the median of paired ratios leaves out a round that drifted.

Usage::

    PYTHONPATH=src python benchmarks/check_obs_overhead.py [--scale 0.03] [--pairs 7]
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import time

from repro.study import Study


def write_step_summary(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Append a markdown table to the CI job's step summary, if any.

    Same contract as the regression gate's helper: unset
    ``$GITHUB_STEP_SUMMARY`` (local runs) makes this a no-op.
    """
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path or not rows:
        return
    lines = [
        f"### {title}",
        "",
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    with open(summary_path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


#: The timed configurations, as ``Study.run`` keyword arguments, in
#: run order: the reference ``disabled`` runs between the two it is
#: compared with, so each pair runs back to back.
CONFIGS = {
    "enabled": dict(collect_metrics=True),
    "disabled": dict(collect_metrics=False),
    "recording": dict(collect_metrics=False, record="epoch"),
}


def paired_cpu_seconds(pairs: int, scale: float, seed: int) -> dict[str, list[float]]:
    """Per-round CPU seconds of every configuration, in round order."""
    names = list(CONFIGS)
    seconds: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(pairs):
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            # Collect the previous study's cyclic garbage outside the timer.
            gc.collect()
            started = time.process_time()
            Study.run(scale=scale, seed=seed, **CONFIGS[name])
            seconds[name].append(time.process_time() - started)
    return seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument(
        "--budget",
        type=float,
        default=0.05,
        help="max tolerated disabled-vs-enabled slowdown (fraction)",
    )
    parser.add_argument(
        "--record-budget",
        type=float,
        default=0.05,
        help="max tolerated cost of epoch-detail recording (fraction)",
    )
    args = parser.parse_args(argv)

    seconds = paired_cpu_seconds(args.pairs, args.scale, args.seed)
    disabled = statistics.median(seconds["disabled"])
    enabled = statistics.median(seconds["enabled"])
    recording = statistics.median(seconds["recording"])
    overhead = statistics.median(
        off / on for off, on in zip(seconds["disabled"], seconds["enabled"])
    ) - 1.0
    record_overhead = statistics.median(
        rec / off for rec, off in zip(seconds["recording"], seconds["disabled"])
    ) - 1.0
    print(
        f"scale={args.scale} pairs={args.pairs}: CPU median "
        f"disabled {disabled:.2f}s, enabled {enabled:.2f}s"
    )
    print(
        f"disabled-mode overhead vs enabled (median paired ratio): "
        f"{overhead:+.1%} (budget {args.budget:.0%}); enabled-mode cost: "
        f"{enabled / disabled - 1.0:+.1%}"
    )
    failed = False
    if overhead > args.budget:
        print(
            "FAIL: a study with observability disabled ran slower than one "
            "with it enabled — the truthiness gate is not cheap when off",
            file=sys.stderr,
        )
        failed = True

    print(
        f"recording (epoch detail) CPU median {recording:.2f}s; "
        f"overhead vs recording off (median paired ratio): "
        f"{record_overhead:+.1%} (budget {args.record_budget:.0%})"
    )
    if record_overhead > args.record_budget:
        print(
            "FAIL: epoch-detail recording costs more than its budget — "
            "the event log is doing per-packet-scale work on the epoch path",
            file=sys.stderr,
        )
        failed = True

    write_step_summary(
        f"Observability overhead (scale={args.scale}, "
        f"{args.pairs} alternating rounds, CPU time)",
        ["configuration", "median CPU (s)", "median overhead vs reference", "budget", "verdict"],
        [
            [
                "metrics disabled (reference: enabled)",
                f"{disabled:.2f}",
                f"{overhead:+.1%}",
                f"{args.budget:.0%}",
                "FAIL" if overhead > args.budget else "ok",
            ],
            [
                "metrics enabled (informational)",
                f"{enabled:.2f}",
                f"{enabled / disabled - 1.0:+.1%}",
                "-",
                "-",
            ],
            [
                "recording on, epoch detail (reference: recording off)",
                f"{recording:.2f}",
                f"{record_overhead:+.1%}",
                f"{args.record_budget:.0%}",
                "FAIL" if record_overhead > args.record_budget else "ok",
            ],
        ],
    )
    if failed:
        return 1
    print("OK: disabled observability and recording are within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
