"""Experiment F4 — Figure 4 / §4.2: where ECT marks are stripped.

Benchmarks the traceroute campaign from one vantage (the per-source
unit of Figure 4) and regenerates the §4.2 statistics from the full
campaign: the overwhelming majority of hops pass ECT(0) unmodified
(paper: ~98 %), strips are few and scattered with a sometimes-strip
minority (paper: 1143 locations, 125 sometimes), and strip locations
concentrate at AS boundaries (paper: 59.1 %).
"""

from repro.core.analysis.pathanalysis import analyze_campaign
from repro.reporting.report import render_figure4


def test_figure4_single_vantage_campaign(benchmark, bench_world, bench_app):
    targets = [s.addr for s in bench_world.servers]

    campaign = benchmark.pedantic(
        bench_app.run_traceroute_vantage,
        args=("ec2-virginia", targets),
        rounds=1,
        iterations=1,
    )
    assert len(campaign) == len(targets)
    # Nearly every path elicits multiple responding hops.
    responding = [len(p.responding_hops()) for p in campaign]
    assert sum(1 for n in responding if n >= 3) > 0.9 * len(responding)


def test_figure4_statistics(benchmark, bench_world, bench_campaign):
    analysis = benchmark.pedantic(
        analyze_campaign,
        args=(bench_campaign, bench_world.noisy_as_map),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_figure4(bench_campaign, analysis))

    # Abstract: ~98 % of hops pass the mark unmodified.
    assert analysis.pct_hops_passing > 90.0
    assert analysis.strip_events > 0

    # Strip locations are few relative to all observed responders.
    responders = {hop.responder for hop in analysis.hops}
    assert len(analysis.strip_locations()) < 0.2 * len(responders)

    # A minority of strip locations only sometimes strips (paper:
    # 125 of 1143).
    sometimes = analysis.sometimes_strip_locations()
    assert len(sometimes) < max(2, len(analysis.strip_locations()))

    # Strip locations concentrate at AS boundaries (paper: 59.1 %).
    fraction, boundary, determinate = analysis.boundary_strip_fraction()
    assert determinate > 0
    assert fraction > 0.3

    # Broad AS coverage, as in the paper's 1400 ASes.
    assert len(analysis.ases_observed()) > 20

    # §4.2: "In all cases, observed changes to the ECN field were to
    # set it to not-ECT. We did not see any ECN-CE marks."
    from repro.netsim.ecn import ECN

    for path in bench_campaign:
        for hop in path.hops:
            assert hop.quoted_ecn != int(ECN.CE)


def test_figure4_strips_not_near_the_sender(bench_world, bench_campaign):
    """Paper: strip regions are 'not located near the sender'."""
    analysis = analyze_campaign(bench_campaign, bench_world.as_map)
    vantage_asns = {info.asn for info in bench_world.vantage_as.values()}
    transit_asns = {info.asn for info in bench_world.transit_as}
    for hop in analysis.hops:
        if hop.status == "strip":
            assert hop.asn not in vantage_asns
            assert hop.asn not in transit_asns
            assert hop.ttl >= 3
