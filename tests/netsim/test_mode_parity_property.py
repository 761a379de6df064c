"""Property test: fast and event execution modes are equivalent.

The analytic fast path exists purely for performance (DESIGN.md §3);
this property drives randomly shaped chains with random impairments
through both modes and requires identical observable outcomes —
delivery, timing, marks, and ICMP behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.ecn import ECN
from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import link_pair
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.network import EVENT, FAST, Network
from repro.netsim.queues import BernoulliLoss, StaticCongestion
from repro.netsim.router import Router
from repro.netsim.topology import Topology


def build(mode, seed, hops, bleach_at, drop_at, loss_rate, congested_at):
    topo = Topology()
    for index in range(hops):
        topo.add_router(
            Router(
                f"r{index}",
                asn=100 + index,
                interface_addr=parse_addr(f"10.0.{index}.1"),
            )
        )
        if index:
            forward, backward = link_pair(
                f"r{index - 1}",
                f"r{index}",
                delay=0.002 * index,
                loss=BernoulliLoss(loss_rate),
            )
            backward.loss = BernoulliLoss(0.0)
            if congested_at == index:
                forward.aqm = StaticCongestion(0.5, ecn_capable_queue=True)
                backward.aqm = StaticCongestion(0.5, ecn_capable_queue=True)
            topo.add_link_pair(forward, backward)
    if bleach_at is not None and 0 <= bleach_at < hops:
        topo.routers[f"r{bleach_at}"].add_middlebox(ECTBleacher())
    if drop_at is not None and 0 <= drop_at < hops:
        topo.routers[f"r{drop_at}"].add_middlebox(ECTDropper())
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(Host("server", parse_addr("198.51.100.1"), f"r{hops - 1}"))
    return Network(topo, seed=seed, mode=mode), client, server


def observe(mode, seed, hops, bleach_at, drop_at, loss_rate, congested_at, ttls):
    """Log observable events with times relative to each probe's send.

    Absolute clock values are *not* comparable across modes: when a
    packet dies mid-path, event mode has advanced the clock to the
    drop point while the fast path scheduled nothing — a difference
    with no observable packet, so only per-probe latencies must agree.
    """
    net, client, server = build(
        mode, seed, hops, bleach_at, drop_at, loss_rate, congested_at
    )
    log = []
    sent_at = [0.0]
    server.udp_bind(
        123,
        lambda d, p, t: log.append(
            ("deliver", round(t - sent_at[0], 9), p.ttl, int(p.ecn))
        ),
    )
    client.on_icmp(
        lambda m, p, t: log.append(
            ("icmp", round(t - sent_at[0], 9), p.src, int(m.quoted_packet().ecn))
        )
    )
    sock = client.udp_bind(None)
    for index, ttl in enumerate(ttls):
        sent_at[0] = net.scheduler.now
        sock.send(
            server.addr,
            123,
            b"probe",
            ecn=ECN.ECT_0 if index % 2 == 0 else ECN.NOT_ECT,
            ttl=ttl,
            ident=index + 1,
        )
        net.scheduler.run()
    return log


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    hops=st.integers(2, 6),
    bleach_at=st.one_of(st.none(), st.integers(0, 5)),
    drop_at=st.one_of(st.none(), st.integers(0, 5)),
    loss_rate=st.sampled_from([0.0, 0.3]),
    congested_at=st.one_of(st.none(), st.integers(1, 5)),
    ttls=st.lists(st.integers(1, 10), min_size=1, max_size=6),
)
def test_fast_and_event_modes_agree(
    seed, hops, bleach_at, drop_at, loss_rate, congested_at, ttls
):
    fast_log = observe(FAST, seed, hops, bleach_at, drop_at, loss_rate, congested_at, ttls)
    event_log = observe(EVENT, seed, hops, bleach_at, drop_at, loss_rate, congested_at, ttls)
    assert fast_log == event_log
