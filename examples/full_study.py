"""Reproduce the paper end to end.

Runs the complete methodology of §3 — DNS discovery of the pool,
the trace schedule across all thirteen vantage points in two batches,
and the ECT(0) traceroute campaign — then prints every table and
figure of §4 with the paper's numbers alongside.

    python examples/full_study.py [scale] [seed]

``scale`` defaults to 0.1 (250 servers, ~21 traces; about a minute).
Scale 1.0 is the paper's full 2500 x 210 configuration (tens of
minutes; numbers recorded in EXPERIMENTS.md).
"""

import sys
import time

from repro import Study


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20150401

    started = time.time()
    study = Study.run(scale=scale, seed=seed)
    hops = sum(len(p.hops) for p in study.campaign)
    print(
        f"[{time.time() - started:6.1f}s] {study.world!r}: "
        f"{len(study.traces)} traces over "
        f"{len(study.traces.server_addrs)} discovered servers, "
        f"{len(study.campaign)} traceroutes ({hops} hop observations)"
    )
    print()
    print(study.report())


if __name__ == "__main__":
    main()
