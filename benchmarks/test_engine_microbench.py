"""Hot-path microbenchmarks: raw engine and forwarding throughput.

The figure/table benchmarks measure end-to-end study cost; these two
isolate the layers the hot-path overhaul targets, so the regression
gate catches a slow scheduler or packet path even when a study-level
number happens to absorb it:

* ``test_engine_events_per_second`` — schedule/cancel/dispatch churn
  through :class:`~repro.netsim.engine.EventScheduler`, the
  retransmission-timer pattern that dominates engine time in the TCP
  experiment.
* ``test_packets_forwarded_per_second`` — UDP datagrams across a
  six-router chain in FAST mode: router TTL decrement, link sampler,
  and delivery, with no TCP or study machinery on top.

Both print an absolute rate; the gate compares calibration-normalised
units via ``check_regression.py``.
"""

from repro.netsim.engine import EventScheduler
from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import link_pair
from repro.netsim.network import FAST, Network
from repro.netsim.router import Router
from repro.netsim.topology import Topology

EVENTS = 50_000
PACKETS = 20_000
CHAIN_HOPS = 6


def _event_churn() -> int:
    """Schedule EVENTS events, cancel every third, drain the rest."""
    sched = EventScheduler()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1

    for index in range(EVENTS):
        event = sched.schedule(0.001 * (index % 97), tick)
        if index % 3 == 0:
            event.cancel()
    sched.run()
    return fired


def test_engine_events_per_second(benchmark):
    fired = benchmark(_event_churn)
    assert fired == EVENTS - (EVENTS + 2) // 3
    rate = EVENTS / benchmark.stats["mean"]
    print(f"\nengine: {rate:,.0f} scheduled events/s (heap backend)")


def _build_chain():
    topo = Topology()
    for index in range(CHAIN_HOPS):
        topo.add_router(
            Router(
                f"r{index}",
                asn=100 + index,
                interface_addr=parse_addr(f"10.0.{index}.1"),
            )
        )
        if index:
            forward, backward = link_pair(f"r{index - 1}", f"r{index}", delay=0.001)
            topo.add_link_pair(forward, backward)
    client = topo.add_host(Host("client", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(
        Host("server", parse_addr("198.51.100.1"), f"r{CHAIN_HOPS - 1}")
    )
    return Network(topo, seed=20150401, mode=FAST), client, server


def test_packets_forwarded_per_second(benchmark):
    net, client, server = _build_chain()
    delivered = []
    server.udp_bind(123, lambda datagram, packet, rtt: delivered.append(rtt))
    socket = client.udp_bind(None)
    server_addr = server.addr

    def blast() -> None:
        for _ in range(PACKETS):
            socket.send(server_addr, 123, b"microbench-probe")
        net.scheduler.run()

    benchmark.pedantic(blast, rounds=1, iterations=1, warmup_rounds=1)
    assert len(delivered) >= PACKETS  # warmup + measured round
    hops_rate = PACKETS * (CHAIN_HOPS - 1) / benchmark.stats["mean"]
    print(
        f"\nforwarding: {PACKETS / benchmark.stats['mean']:,.0f} packets/s "
        f"end-to-end ({hops_rate:,.0f} router-hops/s, {CHAIN_HOPS} routers)"
    )
