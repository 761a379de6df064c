"""Property test: TCP delivers exactly the bytes sent, despite loss.

Random payload sizes and loss seeds; the receiving application must
see the payload intact and in order, or the connection must fail
explicitly — silent corruption or reordering is never acceptable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.host import Host
from repro.netsim.ipv4 import parse_addr
from repro.netsim.link import link_pair
from repro.netsim.network import FAST, Network
from repro.netsim.queues import BernoulliLoss
from repro.netsim.router import Router
from repro.netsim.topology import Topology
from repro.tcp.connection import TCPStack


def build_net(seed: int, loss_rate: float):
    topo = Topology()
    topo.add_router(Router("r0", asn=1, interface_addr=parse_addr("10.0.0.1")))
    topo.add_router(Router("r1", asn=2, interface_addr=parse_addr("10.0.1.1")))
    forward, backward = link_pair(
        "r0",
        "r1",
        delay=0.005,
        loss=BernoulliLoss(loss_rate),
    )
    backward.loss = BernoulliLoss(loss_rate / 2)
    topo.add_link_pair(forward, backward)
    client = topo.add_host(Host("c", parse_addr("192.0.2.1"), "r0"))
    server = topo.add_host(Host("s", parse_addr("198.51.100.1"), "r1"))
    return Network(topo, seed=seed, mode=FAST), client, server


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 5000),
    size=st.integers(1, 40_000),
    loss_rate=st.sampled_from([0.0, 0.1, 0.25]),
)
def test_payload_delivered_intact_or_explicit_failure(seed, size, loss_rate):
    net, client, server = build_net(seed, loss_rate)
    payload = bytes((seed + i) % 256 for i in range(size))

    received = bytearray()
    stack_s = TCPStack(server)

    def on_connection(conn):
        conn.on_data = lambda c, data: received.extend(data)

    stack_s.listen(80, on_connection)

    failures = []
    stack_c = TCPStack(client)
    conn = stack_c.connect(server.addr, 80)
    conn.syn_retries = 8
    conn.data_retries = 12
    conn.on_established = lambda c: c.send(payload)
    conn.on_failure = lambda c, reason: failures.append(reason)
    net.scheduler.run(max_events=500_000)

    if failures:
        # An explicit failure is allowed under heavy loss; partial,
        # silently truncated delivery is not success.
        assert loss_rate > 0
    else:
        assert bytes(received) == payload
