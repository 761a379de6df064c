"""Tests for HTTP message framing."""

import pytest

from repro.netsim.errors import CodecError
from repro.protocols.http.messages import (
    HTTPRequest,
    HTTPResponse,
    response_complete,
)


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
        assert response.header("missing", "dflt") == "dflt"

    def test_connection_close_added(self):
        assert b"Connection: close" in HTTPResponse().encode()

    def test_bad_status_line_rejected(self):
        with pytest.raises(CodecError):
            HTTPResponse.decode(b"HTTP/1.1 abc\r\n\r\n")


class TestCompleteness:
    def test_incomplete_headers(self):
        assert not response_complete(b"HTTP/1.1 200 OK\r\n")

    def test_complete_with_full_body(self):
        wire = HTTPResponse(body=b"12345").encode()
        assert response_complete(wire)

    def test_incomplete_body(self):
        wire = HTTPResponse(body=b"12345").encode()
        assert not response_complete(wire[:-2])

    def test_no_content_length_is_complete_at_header_end(self):
        raw = b"HTTP/1.1 200 OK\r\n\r\n"
        assert response_complete(raw)
