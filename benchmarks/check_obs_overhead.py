"""CI gate: observability must be cheap when off, recording cheap when on.

The :mod:`repro.obs` layer promises that disabled instrumentation
costs one falsey-predicate per call site.  A build cannot time itself
against a hypothetical uninstrumented twin, so this check pins the
contract from the other side: it times the same small sequential study
with observability **disabled** and **enabled**, and compares best-of
wall clocks.

If the disabled runs are more than ``--budget`` (default 5 %) slower
than the enabled ones, the gating is broken or inverted — a disabled
registry is doing real work — and the check fails.  The enabled-mode
cost is reported for the record but not gated: counting ~1.5 M events
is allowed to cost something.

Recording gets its own gate: ``record="epoch"`` turns on the study's
event log — one context switch, one span and a handful of events per
measurement epoch — so it must cost at most ``--record-budget``
(default 5 %) over a run with recording off.  Spans and events are one
record stream behind one switch, so a single gate covers both.

The three configurations are timed in ``--runs`` rounds (default 3).
Every round runs each configuration once, and the order rotates from
round to round, so drift of a shared machine spreads over all three
instead of landing on whichever configuration runs last.

Usage::

    PYTHONPATH=src python benchmarks/check_obs_overhead.py [--scale 0.03]
"""

from __future__ import annotations

import argparse
import os
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


#: The timed configurations, as ``Study.run`` keyword arguments.
CONFIGS = {
    "disabled": dict(collect_metrics=False),
    "enabled": dict(collect_metrics=True),
    "recording": dict(collect_metrics=False, record="epoch"),
}


def best_of_rotated(runs: int, scale: float, seed: int) -> dict[str, float]:
    """Best wall clock per configuration over ``runs`` rotated rounds."""
    names = list(CONFIGS)
    best = dict.fromkeys(names, float("inf"))
    for round_index in range(runs):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            started = time.perf_counter()
            Study.run(scale=scale, seed=seed, **CONFIGS[name])
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--runs", type=int, default=3)
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

    best = best_of_rotated(args.runs, args.scale, args.seed)
    disabled, enabled, recording = (
        best["disabled"], best["enabled"], best["recording"]
    )
    overhead = disabled / enabled - 1.0
    print(
        f"scale={args.scale} runs={args.runs}: "
        f"disabled best {disabled:.2f}s, enabled best {enabled:.2f}s"
    )
    print(
        f"disabled-mode overhead vs enabled: {overhead:+.1%} "
        f"(budget {args.budget:.0%}); enabled-mode cost: "
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

    record_overhead = recording / disabled - 1.0
    print(
        f"recording (epoch detail) best {recording:.2f}s; "
        f"overhead vs recording off: {record_overhead:+.1%} "
        f"(budget {args.record_budget:.0%})"
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
        f"best of {args.runs} rotated rounds)",
        ["configuration", "best (s)", "overhead vs reference", "budget", "verdict"],
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
