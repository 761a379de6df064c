"""Tests for the QUIC server, probe connection, and §13.4 classifier."""

from repro.netsim.ecn import ECN
from repro.netsim.middlebox import ECTBleacher, ECTDropper
from repro.netsim.ipv4 import PROTO_UDP
from repro.protocols.quic.connection import QUICProbeResult, probe_server
from repro.protocols.quic.server import QUICServer
from repro.protocols.quic.validation import (
    ECN_USABLE_STATES,
    QUIC_STATES,
    classify_probe,
    ecn_usable,
)

from wiretap import tap


def probe(client, server_addr, **kwargs):
    results = []
    kwargs.setdefault("timeout", 0.5)
    probe_server(client, server_addr, results.append, **kwargs)
    return results


class TestHandshakeAndCounts:
    def test_clean_path_validates(self, two_host_net):
        net, client, server = two_host_net
        QUICServer(server)
        results = probe(client, server.addr, packets=4)
        net.scheduler.run()
        result = results[0]
        assert result.handshake_ok
        assert result.handshake_attempts == 1
        assert result.packets_sent == 5  # Initial + 4 pings
        assert result.packets_acked == 5
        assert result.ect0_echoed == 5
        assert result.ect1_echoed == 0
        assert result.ce_echoed == 0
        assert classify_probe(result) == "valid"

    def test_server_replies_not_ect(self, two_host_net):
        """Like NTP, the reverse path is unmarked — only the forward
        direction is validated, mirroring the paper's limitation."""
        net, client, server = two_host_net
        QUICServer(server)
        marks = []
        tap(client, lambda d, p, t: marks.append(p.ecn) if d == "in" else None)
        probe(client, server.addr, packets=2)
        net.scheduler.run()
        assert marks and all(ecn is ECN.NOT_ECT for ecn in marks)

    def test_duplicate_packet_numbers_counted_once(self, two_host_net):
        """RFC 9000 §13.4.1: ECN counts are per distinct packet number."""
        net, client, server = two_host_net
        quic = QUICServer(server)
        results = probe(client, server.addr, packets=2)
        net.scheduler.run()
        conn = next(iter(quic.connections.values()))
        before = conn.ect0
        # Replay an already-seen packet number at the server.
        assert conn.record(0, ECN.ECT_0) is False
        assert conn.ect0 == before
        assert results[0].packets_acked == 3

    def test_offline_server_unreachable(self, two_host_net):
        net, client, server = two_host_net
        QUICServer(server).set_online(False)
        results = probe(
            client, server.addr, handshake_attempts=2, fallback_attempts=1
        )
        net.scheduler.run()
        result = results[0]
        assert not result.handshake_ok
        assert not result.fallback_ok
        assert result.handshake_attempts == 2
        assert classify_probe(result) == "unreachable"

    def test_reset_connections_clears_state(self, two_host_net):
        net, client, server = two_host_net
        quic = QUICServer(server)
        probe(client, server.addr, packets=1)
        net.scheduler.run()
        assert quic.connections
        quic.reset_connections()
        assert not quic.connections


class TestPathInterference:
    def test_bleached_path_classifies_bleached(self, two_host_net):
        """A bleacher en route: everything arrives, nothing stays marked."""
        net, client, server = two_host_net
        QUICServer(server)
        net.topology.routers["r0"].add_middlebox(ECTBleacher())
        results = probe(client, server.addr, packets=4)
        net.scheduler.run()
        result = results[0]
        assert result.handshake_ok
        assert result.packets_acked == result.packets_sent == 5
        assert result.ect0_echoed == 0
        assert classify_probe(result) == "bleached"

    def test_ect_dropper_classifies_blackhole(self, two_host_net):
        """ECT-marked UDP is eaten; the not-ECT fallback still connects
        — the QUIC analogue of the paper's ECT-unreachable servers."""
        net, client, server = two_host_net
        QUICServer(server)
        net.topology.routers["r0"].add_middlebox(
            ECTDropper(protocols=frozenset({PROTO_UDP}))
        )
        results = probe(
            client, server.addr, handshake_attempts=2, fallback_attempts=2
        )
        net.scheduler.run()
        result = results[0]
        assert not result.handshake_ok
        assert result.fallback_ok
        assert classify_probe(result) == "blackhole"


class TestClassifier:
    def make(self, **kwargs):
        base = dict(
            server_addr=1,
            handshake_ok=True,
            fallback_ok=False,
            handshake_attempts=1,
            packets_sent=8,
            packets_acked=8,
            ect0_echoed=8,
            ect1_echoed=0,
            ce_echoed=0,
        )
        base.update(kwargs)
        return QUICProbeResult(**base)

    def test_valid(self):
        assert classify_probe(self.make()) == "valid"

    def test_ce_counts_as_valid(self):
        """CE replacing ECT(0) is congestion feedback, not mangling."""
        result = self.make(ect0_echoed=6, ce_echoed=2)
        assert classify_probe(result) == "valid"

    def test_loss_is_not_bleaching(self):
        """Lost packets are not acked, so they never read as bleached."""
        result = self.make(packets_acked=5, ect0_echoed=5)
        assert classify_probe(result) == "valid"

    def test_partial_bleach_detected(self):
        result = self.make(packets_acked=8, ect0_echoed=5)
        assert classify_probe(result) == "bleached"

    def test_remarked_to_ect1(self):
        result = self.make(ect0_echoed=7, ect1_echoed=1)
        assert classify_probe(result) == "remarked"

    def test_inconsistent_counts(self):
        more_marked_than_acked = self.make(ect0_echoed=9)
        assert classify_probe(more_marked_than_acked) == "inconsistent"
        more_acked_than_sent = self.make(packets_acked=9, ect0_echoed=9)
        assert classify_probe(more_acked_than_sent) == "inconsistent"

    def test_blackhole_vs_unreachable(self):
        blackhole = self.make(handshake_ok=False, fallback_ok=True)
        assert classify_probe(blackhole) == "blackhole"
        unreachable = self.make(handshake_ok=False, fallback_ok=False)
        assert classify_probe(unreachable) == "unreachable"

    def test_usable_states(self):
        assert ECN_USABLE_STATES == {"valid"}
        for state in QUIC_STATES:
            assert ecn_usable(state) == (state == "valid")
