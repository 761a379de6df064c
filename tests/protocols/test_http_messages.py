"""Tests for HTTP message framing."""

import pytest

from repro.netsim.errors import CodecError
from repro.protocols.http.client import HTTPFetch
from repro.protocols.http.messages import HTTP_PORT, HTTPRequest, HTTPResponse
from repro.tcp.connection import TCPStack


class TestRequest:
    def test_roundtrip(self):
        request = HTTPRequest(
            method="GET",
            target="/",
            headers={"Host": "ntp-0001.uk", "Connection": "close"},
        )
        decoded = HTTPRequest.decode(request.encode())
        assert decoded.method == "GET"
        assert decoded.target == "/"
        assert decoded.headers["Host"] == "ntp-0001.uk"

    def test_body_gets_content_length(self):
        request = HTTPRequest(method="POST", target="/x", body=b"payload")
        wire = request.encode()
        assert b"Content-Length: 7" in wire
        assert HTTPRequest.decode(wire).body == b"payload"

    def test_unterminated_headers_rejected(self):
        with pytest.raises(CodecError):
            HTTPRequest.decode(b"GET / HTTP/1.1\r\nHost: x\r\n")

    def test_bad_request_line_rejected(self):
        with pytest.raises(CodecError):
            HTTPRequest.decode(b"NONSENSE\r\n\r\n")


class TestResponse:
    def test_roundtrip(self):
        response = HTTPResponse(
            status=302,
            reason="Found",
            headers={"Location": "http://www.pool.ntp.org/"},
            body=b"<html></html>",
        )
        decoded = HTTPResponse.decode(response.encode())
        assert decoded.status == 302
        assert decoded.header("location") == "http://www.pool.ntp.org/"
        assert decoded.body == b"<html></html>"

    def test_header_lookup_case_insensitive(self):
        response = HTTPResponse(headers={"Content-Type": "text/html"})
        assert response.header("content-type") == "text/html"
        assert response.header("missing") is None

    def test_connection_close_added(self):
        assert b"Connection: close" in HTTPResponse().encode()

    def test_bad_status_line_rejected(self):
        with pytest.raises(CodecError):
            HTTPResponse.decode(b"HTTP/1.1 abc\r\n\r\n")


class TestCompleteness:
    """A fetch finishes as soon as its response is complete per
    Content-Length, and otherwise only at its deadline."""

    DEADLINE = 5.0

    def fetch(self, two_host_net, wire):
        """Serve ``wire`` (connection left open); return the fetch's
        result and the sim time it arrived."""
        net, client, server = two_host_net

        def on_connection(conn):
            conn.on_data = lambda conn, _request: conn.send(wire)

        TCPStack(server).listen(HTTP_PORT, on_connection)
        done = []
        HTTPFetch(
            client,
            server.addr,
            use_ecn=False,
            callback=lambda result: done.append((result, net.scheduler.now)),
            deadline=self.DEADLINE,
        )
        net.scheduler.run()
        return done[0]

    def test_incomplete_headers(self, two_host_net):
        result, at = self.fetch(two_host_net, b"HTTP/1.1 200 OK\r\n")
        assert at == pytest.approx(self.DEADLINE)
        assert result.failure == "bad-response"

    def test_complete_with_full_body(self, two_host_net):
        result, at = self.fetch(two_host_net, HTTPResponse(body=b"12345").encode())
        assert at < 1.0
        assert result.response.body == b"12345"

    def test_incomplete_body(self, two_host_net):
        wire = HTTPResponse(body=b"12345").encode()
        result, at = self.fetch(two_host_net, wire[:-2])
        assert at == pytest.approx(self.DEADLINE)
        assert result.response.body == b"123"

    def test_no_content_length_is_complete_at_header_end(self, two_host_net):
        result, at = self.fetch(two_host_net, b"HTTP/1.1 200 OK\r\n\r\n")
        assert at < 1.0
        assert result.ok and result.response.body == b""
