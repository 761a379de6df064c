"""Experiment §4.1/§4.2/§4.3 — the paper's headline scalars, together.

Regenerates every number quoted in the abstract from one study and
prints the paper-versus-reproduced comparison that EXPERIMENTS.md
records:

* 98.97 % of not-ECT-reachable servers also ECT(0)-reachable;
* 99.45 % for the converse;
* ~98 % of hops pass ECT(0) unmodified;
* 82.0 % of TCP-reachable servers negotiate ECN.
"""

import gc

from repro.core.analysis.pathanalysis import analyze_campaign
from repro.core.analysis.reachability import analyze_reachability
from repro.core.analysis.tcp_ecn import analyze_tcp_ecn


def _collect_garbage() -> None:
    # Not ``setup=gc.collect``: pedantic would take its return value
    # (the number of objects freed) as the round's arguments.
    gc.collect()


def test_headline_scalars(benchmark, bench_world, bench_study, bench_campaign):
    def regenerate():
        return (
            analyze_reachability(bench_study),
            analyze_tcp_ecn(bench_study),
            analyze_campaign(bench_campaign, bench_world.noisy_as_map),
        )

    # One regeneration takes about 0.04 s, so a single round is mostly
    # timer and scheduling noise; the gate compares the mean of many.
    # Each round starts from a collected heap, so the garbage collector
    # runs at the same points in every round instead of landing its
    # pauses on whichever rounds it happens to.
    reach, tcp, paths = benchmark.pedantic(
        regenerate, setup=_collect_garbage, rounds=20, iterations=1, warmup_rounds=1
    )

    print()
    print("headline                      paper     reproduced")
    print(f"ECT-given-plain reachability  98.97%    {reach.avg_pct_ect_given_plain:.2f}%")
    print(f"plain-given-ECT reachability  99.45%    {reach.avg_pct_plain_given_ect:.2f}%")
    print(f"hops passing ECT(0)           ~98%      {paths.pct_hops_passing:.2f}%")
    print(f"TCP servers negotiating ECN   82.0%     {tcp.pct_negotiated:.1f}%")

    assert reach.avg_pct_ect_given_plain > 93.0
    assert reach.avg_pct_plain_given_ect > reach.avg_pct_ect_given_plain
    assert paths.pct_hops_passing > 90.0
    assert 74.0 < tcp.pct_negotiated < 90.0

    # The overall ordering the paper's conclusion rests on: persistent
    # ECN damage is the *least* significant reachability problem,
    # behind transient loss and offline servers.
    offline_fraction = 1 - reach.avg_udp_plain / reach.total_servers
    ect_deficit = (100.0 - reach.avg_pct_ect_given_plain) / 100.0
    assert ect_deficit < offline_fraction
