"""Byte-exactness properties for the packet hot path.

The hot-path overhaul (slotted packets, arithmetic header checksum,
in-place TTL/ECN mutation) must not change a single wire byte.  These
properties pin the codec against randomly generated packets: encode →
decode round-trips, ICMP quote truncation keeps its prefix exactness,
and the in-place ECN rewrite produces bytes identical to a
fresh-object rewrite.
"""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.checksum import internet_checksum, pseudo_header
from repro.netsim.ecn import ECN
from repro.netsim.errors import CodecError
from repro.netsim.icmp import (
    CLASSIC_QUOTE_PAYLOAD,
    FULL_QUOTE_LIMIT,
    quote_datagram,
    time_exceeded,
)
from repro.netsim.host import Host
from repro.netsim.ipv4 import HEADER_LEN, IPv4Packet, PROTO_TCP, PROTO_UDP, TransportPacket
from repro.netsim.sockets import UDPSocket
from repro.netsim.udp import _HEADER as _UDP_HEADER
from repro.netsim.udp import UDPDatagram
from repro.protocols.ntp.packet import NTP_PORT, NTPPacket
from repro.protocols.ntp.packet import PACKET_LEN as NTP_PACKET_LEN
from repro.protocols.ntp.server import NTPServer
from repro.protocols.quic.packet import (
    CLIENT_HELLO,
    QUIC_PORT,
    TYPE_INITIAL,
    TYPE_ONE_RTT,
    AckEcnFrame,
    CryptoFrame,
    PingFrame,
    QUICPacket,
)
from repro.protocols.quic.server import QUICServer
from repro.tcp.connection import TCPStack
from repro.tcp.segment import Flags, TCPSegment

addrs = st.integers(1, 0xFFFFFFFE)
packets = st.builds(
    IPv4Packet,
    src=addrs,
    dst=addrs,
    protocol=st.integers(0, 255),
    payload=st.binary(max_size=64),
    ttl=st.integers(1, 255),
    tos=st.integers(0, 255),
    ident=st.integers(0, 0xFFFF),
    dont_fragment=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(packets)
def test_encode_decode_roundtrip(packet):
    decoded = IPv4Packet.decode(packet.encode())
    assert decoded == packet


@settings(max_examples=200, deadline=None)
@given(packets)
def test_arithmetic_checksum_verifies(packet):
    # decode() recomputes the RFC 1071 checksum over the wire header;
    # the arithmetic encoder must produce bytes that verify.
    IPv4Packet.decode(packet.encode(), verify=True)


@settings(max_examples=100, deadline=None)
@given(packets, st.integers(0, 64))
def test_icmp_quote_is_exact_truncation(packet, quote_payload):
    quote = quote_datagram(packet, payload_bytes=quote_payload)
    wire = packet.encode()
    keep = min(quote_payload, len(packet.payload))
    assert quote == wire[: HEADER_LEN + keep]


@settings(max_examples=100, deadline=None)
@given(packets)
def test_ttl_toggle_quote_matches_copy_quote(packet):
    # The router quotes an expiring packet by toggling TTL to 0 in
    # place around time_exceeded() instead of building a copy.  The
    # toggle must produce byte-identical quotes and leave the live
    # packet untouched.
    expected = time_exceeded(packet.replace(ttl=0))
    saved = packet.ttl
    packet.ttl = 0
    message = time_exceeded(packet)
    packet.ttl = saved
    assert message.body == expected.body
    assert message.quoted_packet().ttl == 0
    assert packet.ttl == saved


@settings(max_examples=100, deadline=None)
@given(packets, st.sampled_from(list(ECN)))
def test_in_place_ecn_rewrite_matches_copy_rewrite(packet, ecn):
    copied = packet.with_ecn(ecn)
    mutated = packet.copy()
    mutated.set_ecn(ecn)
    assert mutated == copied
    assert mutated.encode() == copied.encode()
    assert mutated.ecn is ecn
    # DSCP bits survive the rewrite (RFC 3168: ECN field only).
    assert mutated.tos & 0xFC == packet.tos & 0xFC


@settings(max_examples=100, deadline=None)
@given(packets)
def test_copy_is_independent(packet):
    clone = packet.copy()
    assert clone == packet and clone is not packet
    clone.ttl = max(1, clone.ttl - 1)
    clone.payload = b"x" + clone.payload
    assert packet.encode() == IPv4Packet.decode(packet.encode()).encode()


def test_udp_probe_bytes_stable_under_replace():
    # replace() must behave like dataclasses.replace did: new object,
    # selected fields overridden, original untouched.
    packet = IPv4Packet(
        src=0x0A000001,
        dst=0x0A000002,
        protocol=PROTO_UDP,
        payload=b"probe",
        ttl=64,
        tos=ECN.ECT_0,
    )
    bleached = packet.replace(tos=0)
    assert packet.tos == int(ECN.ECT_0)
    assert bleached.tos == 0
    assert bleached.payload == packet.payload
    try:
        packet.replace(nonsense=1)
    except TypeError:
        pass
    else:  # pragma: no cover - defends the API contract
        raise AssertionError("replace() accepted an unknown field")


@settings(max_examples=200, deadline=None)
@given(
    addrs,
    addrs,
    st.builds(
        TCPSegment,
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(0, 0xFF),
        window=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=40),
        mss=st.one_of(st.none(), st.integers(0, 0xFFFF)),
    ),
)
def test_tcp_arithmetic_checksum_matches_reference(src, dst, segment):
    # encode() sums header fields arithmetically instead of packing a
    # zero-checksum header and sweeping bytes; the result must verify
    # against the RFC 1071 reference and round-trip every field.
    wire = segment.encode(src, dst)
    pseudo = pseudo_header(src, dst, PROTO_TCP, len(wire))
    assert internet_checksum(pseudo + wire) == 0
    decoded = TCPSegment.decode(wire, src, dst, verify=True)
    assert decoded.src_port == segment.src_port
    assert decoded.dst_port == segment.dst_port
    assert decoded.seq == segment.seq
    assert decoded.ack == segment.ack
    assert decoded.flags == segment.flags
    assert decoded.window == segment.window
    assert decoded.payload == segment.payload
    assert decoded.mss == segment.mss
    # RFC 768 zero-avoidance is UDP-only: TCP transmits a genuine zero
    # checksum when the sum folds to 0xFFFF.
    (csum,) = struct.unpack_from("!H", wire, 16)
    assert 0 <= csum <= 0xFFFF


def _reference_udp_wire(src, dst, src_port, dst_port, payload):
    """The datagram bytes ``UDPSocket.send`` produced eagerly: the
    checksum base is summed with ``dst_port`` zeroed, then ``dst_port``
    is folded in, and a computed zero goes out as 0xFFFF."""
    length = 8 + len(payload)
    base = 0xFFFF - internet_checksum(
        pseudo_header(src, dst, PROTO_UDP, length)
        + _UDP_HEADER.pack(src_port, 0, length, 0)
        + payload
    )
    total = base + dst_port
    total = (total & 0xFFFF) + (total >> 16)
    csum = 0xFFFF - total
    if csum == 0:
        csum = 0xFFFF
    return _UDP_HEADER.pack(src_port, dst_port, length, csum) + payload


@settings(max_examples=200, deadline=None)
@given(
    addrs,
    addrs,
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFF),
    st.binary(max_size=32),
)
def test_socket_incremental_udp_checksum_matches_encode(
    src, dst, src_port, dst_port, payload
):
    # The eager reference folds dst_port into a checksum base instead
    # of summing the whole datagram; its bytes must be identical to a
    # full UDPDatagram.encode for every input.
    want = UDPDatagram(
        src_port=src_port, dst_port=dst_port, payload=payload
    ).encode(src, dst)
    assert _reference_udp_wire(src, dst, src_port, dst_port, payload) == want


# ----------------------------------------------------------------------
# Structured TCP segments: a TCPStack hands the network TransportPackets
# that carry the segment object and encode it only when the bytes are
# read.
# ----------------------------------------------------------------------


def _reference_tcp_wire(src, dst, sport, dport, seq, ack, flags, window, payload, mss):
    """A TCP segment's bytes from struct packing and the RFC 1071 sum:
    what an eager encode at send time put on the wire."""
    options = b"" if mss is None else struct.pack("!BBH", 2, 4, mss)
    header = struct.pack(
        "!HHIIBBHHH",
        sport,
        dport,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        (20 + len(options)) // 4 << 4,
        int(flags) & 0xFF,
        window,
        0,
        0,
    ) + options
    csum = internet_checksum(
        pseudo_header(src, dst, PROTO_TCP, len(header) + len(payload)) + header + payload
    )
    return header[:16] + struct.pack("!H", csum) + header[18:] + payload


def _stack(addr):
    """A TCPStack on a bare host that keeps what it sends."""
    host = SimpleNamespace(addr=addr, tcp=None, sent=[])
    host.send_ip = host.sent.append
    return TCPStack(host)


class _Recorder:
    """Stands in for a connection: keeps the segments it is handed."""

    def __init__(self):
        self.segments = []

    def handle_segment(self, segment, packet):
        self.segments.append(segment)


tcp_fields = st.tuples(
    st.integers(0, 0xFFFF),  # src port
    st.integers(0, 0xFFFF),  # dst port
    # seq and ack: snd_nxt may pass 2**32 before anything masks it.
    st.integers(0, 2**33),
    st.integers(0, 2**33),
    st.one_of(st.integers(0, 0xFF), st.integers(0, 0xFF).map(Flags)),
    st.integers(0, 0xFFFF),  # window
    st.binary(max_size=64),
    st.one_of(st.none(), st.integers(0, 0xFFFF)),  # mss
)


@settings(max_examples=200, deadline=None)
@given(addrs, addrs, tcp_fields, st.sampled_from([0, 2, 3]))
def test_structured_segment_matches_the_wire(src, dst, fields, tos):
    sender, receiver = _stack(src), _stack(dst)
    sender.transmit(dst, TCPSegment(*fields), tos)
    (packet,) = sender.host.sent
    assert packet.__class__ is TransportPacket and packet.protocol == PROTO_TCP
    # The receiving stack hands its connection exactly what it would
    # have parsed from the bytes.
    recorder = receiver.connections[fields[1], src, fields[0]] = _Recorder()
    receiver.deliver(packet, 0.0)
    wire = packet.payload
    assert recorder.segments == [TCPSegment.decode(wire)]
    # The lazily encoded bytes are the eager ones, and so is the datagram.
    assert wire == _reference_tcp_wire(src, dst, *fields)
    eager = IPv4Packet(src, dst, PROTO_TCP, wire, packet.ttl, tos, packet.ident)
    assert packet == eager and eager == packet
    assert packet.encode() == eager.encode()
    assert packet.copy() == eager
    assert packet.with_ecn(ECN.CE).encode() == eager.with_ecn(ECN.CE).encode()


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(tcp_fields, st.sampled_from([CLASSIC_QUOTE_PAYLOAD, FULL_QUOTE_LIMIT]))
def test_structured_segment_quotes_like_an_eager_one(net_factory, fields, quote_payload):
    # A TCP packet whose TTL runs out in a router is quoted in the ICMP
    # time-exceeded error byte for byte as its eagerly encoded twin.
    quotes = []
    for structured in (True, False):
        net, client, server = net_factory()
        net.topology.routers["r0"].icmp_quote_payload = quote_payload
        client.on_icmp(lambda message, packet, now: quotes.append(message.body))
        segment = TCPSegment(*fields)
        if structured:
            packet = TransportPacket(client.addr, server.addr, PROTO_TCP, segment, 64, 2, 7)
        else:
            wire = segment.encode(client.addr, server.addr)
            packet = IPv4Packet(client.addr, server.addr, PROTO_TCP, wire, tos=2, ident=7)
        packet.ttl = 1
        client.send_ip(packet)
        net.scheduler.run()
    structured_quote, eager_quote = quotes
    assert structured_quote == eager_quote


# ----------------------------------------------------------------------
# Structured UDP datagrams: a UDPSocket hands the network
# TransportPackets that carry the datagram object and encode it only
# when the bytes are read.
# ----------------------------------------------------------------------
udp_fields = st.tuples(
    st.integers(0, 0xFFFF),  # src port
    st.integers(0, 0xFFFF),  # dst port
    st.binary(max_size=64),
    st.integers(0, 0x3F),  # dscp
    st.integers(0, 3),  # ecn
    st.integers(1, 255),  # ttl
    st.integers(0, 0xFFFF),  # ident
)


def _send_udp(src, dst, fields):
    """The packet a UDPSocket on a bare host hands its host."""
    src_port, dst_port, payload, dscp, ecn, ttl, ident = fields
    host = SimpleNamespace(addr=src, sent=[])
    host.send_ip = host.sent.append
    UDPSocket(host=host, port=src_port).send(
        dst, dst_port, payload, ecn=ECN(ecn), dscp=dscp, ttl=ttl, ident=ident
    )
    (packet,) = host.sent
    return packet


@settings(max_examples=200, deadline=None)
@given(addrs, addrs, udp_fields)
def test_structured_datagram_matches_the_wire(src, dst, fields):
    src_port, dst_port, payload, dscp, ecn, ttl, ident = fields
    packet = _send_udp(src, dst, fields)
    assert packet.__class__ is TransportPacket and packet.protocol == PROTO_UDP
    # The receiving host hands its socket exactly what it would have
    # parsed from the bytes.
    receiver = Host("receiver", dst, "r0")
    got = []
    receiver.udp_bind(dst_port, lambda datagram, p, now: got.append(datagram))
    receiver.deliver(packet, 0.0)
    wire = packet.payload
    assert got == [UDPDatagram.decode(wire)]
    assert packet.body == UDPDatagram.decode(wire)
    # The lazily encoded bytes are the eager ones, and so is the datagram.
    assert wire == _reference_udp_wire(src, dst, src_port, dst_port, payload)
    eager = IPv4Packet(src, dst, PROTO_UDP, wire, ttl, (dscp << 2) | ecn, ident)
    assert packet == eager and eager == packet
    assert packet.total_length == eager.total_length
    assert packet.encode() == eager.encode()
    assert packet.copy() == eager and packet.copy().__class__ is TransportPacket
    assert packet.with_ecn(ECN.CE).encode() == eager.with_ecn(ECN.CE).encode()


@given(addrs, addrs, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
@settings(max_examples=50, deadline=None)
def test_structured_datagram_sends_a_zero_checksum_as_ffff(src, dst, src_port, dst_port):
    # A two-byte payload equal to the checksum of a zero payload makes
    # the computed checksum 0, which RFC 768 transmits as 0xFFFF.
    zero = _reference_udp_wire(src, dst, src_port, dst_port, b"\0\0")
    payload = zero[6:8] if zero[6:8] != b"\xff\xff" else b"\0\0"
    fields = (src_port, dst_port, payload, 0, 0, 64, 0)
    wire = _send_udp(src, dst, fields).payload
    assert wire == _reference_udp_wire(src, dst, src_port, dst_port, payload)
    assert wire[6:8] == b"\xff\xff"


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(udp_fields, st.sampled_from([CLASSIC_QUOTE_PAYLOAD, FULL_QUOTE_LIMIT]))
def test_structured_datagram_quotes_like_an_eager_one(net_factory, fields, quote_payload):
    # A UDP packet whose TTL runs out in a router is quoted in the ICMP
    # time-exceeded error byte for byte as its eagerly encoded twin.
    src_port, dst_port, payload, dscp, ecn, _, ident = fields
    quotes = []
    for structured in (True, False):
        net, client, server = net_factory()
        net.topology.routers["r0"].icmp_quote_payload = quote_payload
        client.on_icmp(lambda message, packet, now: quotes.append(message.body))
        tos = (dscp << 2) | ecn
        datagram = UDPDatagram(src_port, dst_port, payload)
        if structured:
            packet = TransportPacket(client.addr, server.addr, PROTO_UDP, datagram, 1, tos, ident)
        else:
            wire = datagram.encode(client.addr, server.addr)
            packet = IPv4Packet(client.addr, server.addr, PROTO_UDP, wire, 1, tos, ident)
        client.send_ip(packet)
        net.scheduler.run()
    structured_quote, eager_quote = quotes
    assert structured_quote == eager_quote


# ----------------------------------------------------------------------
# Application messages as objects: a QUICPacket or NTPPacket handed to
# UDPSocket.send rides its datagram as the object and is encoded only
# when the bytes are read.
# ----------------------------------------------------------------------
u32 = st.integers(0, 0xFFFFFFFF)
#: Fields masked to 32 wire bits where the message is built.
unmasked = st.integers(-(2**40), 2**40)
quic_frames = st.lists(
    st.one_of(
        st.builds(PingFrame),
        st.builds(AckEcnFrame, u32, u32, u32, u32, u32),
        st.builds(CryptoFrame, st.binary(min_size=8, max_size=8)),
    ),
    max_size=4,
)
quic_packets = st.builds(
    QUICPacket, st.sampled_from([TYPE_INITIAL, TYPE_ONE_RTT]), unmasked, u32, quic_frames
)
ntp_packets = st.builds(
    NTPPacket,
    mode=st.integers(0, 7),
    version=st.integers(0, 7),
    leap=st.integers(0, 3),
    stratum=st.integers(0, 255),
    poll=st.integers(-128, 127),
    precision=st.integers(-128, 127),
    root_delay=unmasked,
    root_dispersion=unmasked,
    reference_id=unmasked,
    reference_ts=st.integers(0, 2**64 - 1),
    origin_ts=st.integers(0, 2**64 - 1),
    receive_ts=st.integers(0, 2**64 - 1),
    transmit_ts=st.integers(0, 2**64 - 1),
)
messages = st.one_of(quic_packets, ntp_packets)


def _eager_udp_wire(src, dst, src_port, dst_port, message):
    """What the parent put on the wire: the message encoded at send."""
    return UDPDatagram(src_port, dst_port, message.encode()).encode(src, dst)


@settings(max_examples=200, deadline=None)
@given(addrs, addrs, udp_fields, messages)
def test_carried_message_matches_the_wire(src, dst, fields, message):
    src_port, dst_port, _, dscp, ecn, ttl, ident = fields
    packet = _send_udp(src, dst, (src_port, dst_port, message, dscp, ecn, ttl, ident))
    # The receiving socket is handed the very object that was sent.
    receiver = Host("receiver", dst, "r0")
    got = []
    receiver.udp_bind(dst_port, lambda datagram, p, now: got.append(datagram))
    receiver.deliver(packet, 0.0)
    (datagram,) = got
    assert datagram.message is message
    # The lazily encoded bytes are the eager ones ...
    wire = packet.payload
    assert wire == _eager_udp_wire(src, dst, src_port, dst_port, message)
    eager = IPv4Packet(src, dst, PROTO_UDP, wire, ttl, (dscp << 2) | ecn, ident)
    assert packet == eager and packet.total_length == eager.total_length
    assert packet.encode() == eager.encode()
    # ... and the carried object is what a receiver parses from them.
    parsed = UDPDatagram.decode(wire)
    assert parsed.message is None and parsed == datagram
    assert type(message).decode(parsed.payload) == message


def _zero_checksum_message(src, dst, src_port, dst_port, message):
    """``message`` with one 16-bit-aligned word set so that the UDP
    checksum computes to 0: the NTP reference id's low half, or the
    middle two bytes of the QUIC packet number."""
    if isinstance(message, NTPPacket):
        message.reference_id &= 0xFFFF0000
        word = _eager_udp_wire(src, dst, src_port, dst_port, message)[6:8]
        if word != b"\xff\xff":
            message.reference_id |= int.from_bytes(word, "big")
    else:
        message.packet_number &= 0xFF0000FF
        word = _eager_udp_wire(src, dst, src_port, dst_port, message)[6:8]
        if word != b"\xff\xff":
            message.packet_number |= int.from_bytes(word, "big") << 8
    return message


@settings(max_examples=100, deadline=None)
@given(addrs, addrs, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF), messages)
def test_carried_message_sends_a_zero_checksum_as_ffff(src, dst, src_port, dst_port, message):
    message = _zero_checksum_message(src, dst, src_port, dst_port, message)
    wire = _send_udp(src, dst, (src_port, dst_port, message, 0, 0, 64, 0)).payload
    assert wire == _eager_udp_wire(src, dst, src_port, dst_port, message)
    assert wire[6:8] == b"\xff\xff"


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(udp_fields, messages, st.sampled_from([CLASSIC_QUOTE_PAYLOAD, FULL_QUOTE_LIMIT]))
def test_carried_message_quotes_like_an_eager_one(net_factory, fields, message, quote_payload):
    # A classic quote holds the UDP header, whose checksum covers the
    # message; a 128-byte quote holds the message bytes too.
    src_port, dst_port, _, dscp, ecn, _, ident = fields
    quotes = []
    for structured in (True, False):
        net, client, server = net_factory()
        net.topology.routers["r0"].icmp_quote_payload = quote_payload
        client.on_icmp(lambda message, packet, now: quotes.append(message.body))
        tos = (dscp << 2) | ecn
        if structured:
            datagram = UDPDatagram(src_port, dst_port, message)
            packet = TransportPacket(client.addr, server.addr, PROTO_UDP, datagram, 1, tos, ident)
        else:
            wire = _eager_udp_wire(client.addr, server.addr, src_port, dst_port, message)
            packet = IPv4Packet(client.addr, server.addr, PROTO_UDP, wire, 1, tos, ident)
        client.send_ip(packet)
        net.scheduler.run()
    structured_quote, eager_quote = quotes
    assert structured_quote == eager_quote


bad_messages = st.one_of(
    st.builds(QUICPacket, st.integers(2, 255), u32, u32, quic_frames),
    st.builds(
        QUICPacket,
        st.sampled_from([TYPE_INITIAL, TYPE_ONE_RTT]),
        u32,
        u32,
        st.tuples(
            quic_frames,
            st.builds(CryptoFrame, st.binary(max_size=16).filter(lambda t: len(t) != 8)),
        ).map(lambda pair: pair[0] + [pair[1]]),
    ),
    st.builds(NTPPacket, mode=st.integers(8, 255)),
    st.builds(NTPPacket, version=st.integers(8, 255)),
)


@settings(max_examples=100, deadline=None)
@given(addrs, addrs, bad_messages)
def test_out_of_range_message_raises_at_send(src, dst, message):
    # The message's own encode refuses it ...
    with pytest.raises(CodecError):
        message.encode()
    # ... and so does the send, before anything reaches the network.
    host = SimpleNamespace(addr=src, sent=[])
    host.send_ip = host.sent.append
    with pytest.raises(CodecError):
        UDPSocket(host=host, port=5000).send(dst, 443, message)
    assert host.sent == []


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.sampled_from(["quic", "ntp"]), st.integers(0, 0xFFFF), st.data())
def test_damaged_bytes_arrival_is_dropped(net_factory, family, cid, data):
    # Bytes arrivals keep the decode path: a damaged request is dropped
    # with its CodecError, the intact bytes are served, and the reply
    # rides back as the object.
    net, client, server = net_factory()
    if family == "quic":
        daemon = QUICServer(server)
        request = QUICPacket(TYPE_INITIAL, cid, 0, [CryptoFrame(CLIENT_HELLO)])
        port, header_len = QUIC_PORT, 9
    else:
        daemon = NTPServer(server)
        request = NTPPacket.client_request(float(cid))
        port, header_len = NTP_PORT, NTP_PACKET_LEN
    wire = request.encode()
    replies = []
    sock = client.udp_bind(None, lambda datagram, p, now: replies.append(datagram))
    sock.send(server.addr, port, wire[: data.draw(st.integers(0, header_len - 1))])
    net.scheduler.run()
    served = daemon.packets_served if family == "quic" else daemon.requests_served
    assert served == 0 and replies == []
    sock.send(server.addr, port, wire)
    net.scheduler.run()
    served = daemon.packets_served if family == "quic" else daemon.requests_served
    assert served == 1
    (reply,) = replies
    assert reply.message is not None
    assert type(reply.message).decode(reply.payload) == reply.message
