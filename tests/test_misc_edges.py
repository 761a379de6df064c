"""Edge cases across modules that deserve explicit coverage."""

import pytest

from repro.netsim.errors import CodecError
from repro.protocols.http.client import HTTPFetch
from repro.protocols.http.messages import HTTPRequest
from repro.protocols.http.server import PoolWebServer
from repro.tcp.connection import ConnState, TCPStack


class TestHTTPServerEdges:
    def test_post_rejected_with_405(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server)
        responses = []
        stack = TCPStack(client)
        conn = stack.connect(server.addr, 80)
        buffer = []
        conn.on_established = lambda c: c.send(
            HTTPRequest(method="POST", target="/", body=b"x").encode()
        )
        conn.on_data = lambda c, data: buffer.append(data)
        net.scheduler.run()
        assert b"405" in b"".join(buffer)

    def test_garbage_request_gets_400(self, two_host_net):
        net, client, server = two_host_net
        PoolWebServer(server)
        stack = TCPStack(client)
        buffer = []
        conn = stack.connect(server.addr, 80)
        conn.on_established = lambda c: c.send(b"\xff\xfe garbage\r\n\r\n")
        conn.on_data = lambda c, data: buffer.append(data)
        net.scheduler.run()
        assert b"400" in b"".join(buffer)

    def test_pipelined_header_arrival(self, two_host_net):
        """A request split across two segments is reassembled."""
        net, client, server = two_host_net
        web = PoolWebServer(server)
        stack = TCPStack(client)
        buffer = []
        conn = stack.connect(server.addr, 80)

        def send_in_pieces(c):
            c.send(b"GET / HTTP/1.1\r\nHost: x")
            net.scheduler.schedule(0.1, lambda: c.send(b"\r\n\r\n"))

        conn.on_established = send_in_pieces
        conn.on_data = lambda c, data: buffer.append(data)
        net.scheduler.run()
        assert web.requests_served == 1
        assert b"302" in b"".join(buffer)


class TestTCPSimultaneousishClose:
    def test_both_sides_close_cleanly(self, two_host_net):
        net, client, server = two_host_net
        stack_s = TCPStack(server)
        accepted = []
        stack_s.listen(80, accepted.append)
        stack_c = TCPStack(client)
        conn = stack_c.connect(server.addr, 80)
        net.scheduler.run()
        # Close both ends in the same scheduler round.
        conn.close()
        accepted[0].close()
        net.scheduler.run()
        assert conn.state in (ConnState.CLOSED, ConnState.TIME_WAIT, ConnState.FAILED)
        assert accepted[0].state in (
            ConnState.CLOSED,
            ConnState.TIME_WAIT,
            ConnState.FAILED,
        )
        # Neither demux table leaks the connection forever.
        net.scheduler.run_until(net.scheduler.now + 120.0)
        assert conn.key not in stack_c.connections
        assert accepted[0].key not in stack_s.connections


class TestHTTPFetchAgainstOfflineWeb:
    def test_fetch_http_against_ntp_only_host(self, fresh_world):
        """Pool hosts without web servers: fetch resolves, not ok."""
        world = fresh_world
        target = next(s for s in world.servers if s.web is None)
        host = world.vantage_hosts["ec2-sydney"]
        results = []
        HTTPFetch(host, target.addr, use_ecn=True, callback=results.append, deadline=6.0)
        world.network.scheduler.run()
        assert len(results) == 1
        assert not results[0].ok
        assert not results[0].ecn_negotiated


class TestDNSNameEdgeCases:
    def test_long_offsets_not_compressed(self):
        """Suffix offsets beyond the 14-bit pointer range must not be
        emitted as pointers."""
        from repro.protocols.dns.message import decode_name, encode_name

        offsets = {}
        base = 0x4000 + 10  # beyond pointer range
        wire = encode_name("deep.pool.ntp.org", offsets, base)
        # No suffix was registered at an unreachable offset.
        assert all(off < 0x4000 for off in offsets.values())
        # And the name itself still decodes standalone.
        name, _ = decode_name(wire, 0)
        assert name == "deep.pool.ntp.org"

    def test_max_name_length_enforced(self):
        from repro.protocols.dns.message import encode_name

        label = "a" * 60
        too_long = ".".join([label] * 5)
        with pytest.raises(CodecError):
            encode_name(too_long)
