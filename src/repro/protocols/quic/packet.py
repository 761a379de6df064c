"""QUIC-like packet codec (the RFC 9000 subset the ECN probe needs).

This is deliberately not a full QUIC implementation: no varints, no
encryption, no streams.  What it keeps is exactly the machinery RFC
9000 §13.4 ECN validation depends on — a connection ID, monotonically
increasing packet numbers, a two-flight handshake (Initial carrying a
client/server hello), and ACK frames of the ACK_ECN flavour that echo
how many packets arrived marked ECT(0), ECT(1), and CE.  Fields are
fixed-width so captures and quotations stay byte-exact, mirroring the
NTP codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ...netsim.errors import CodecError

#: QUIC's registered UDP port (RFC 9000 deployments use 443/udp).
QUIC_PORT = 443

#: Long-header-ish packet types (one byte on our wire).
TYPE_INITIAL = 0
TYPE_ONE_RTT = 1

#: Frame type bytes (values borrowed from RFC 9000 §19).
FRAME_PING = 0x01
FRAME_ACK_ECN = 0x03
FRAME_CRYPTO = 0x06

#: Fixed 8-byte stand-ins for the TLS handshake messages.
CLIENT_HELLO = b"quic-chi"
SERVER_HELLO = b"quic-shi"

#: Packet header: type, connection id, packet number.
_HEADER = struct.Struct("!BII")
#: ACK_ECN frame body: largest acked, acked count, ECT(0)/ECT(1)/CE counts.
_ACK_ECN = struct.Struct("!IIIII")

_CRYPTO_LEN = 8


@dataclass(slots=True)
class PingFrame:
    """A PING frame — elicits an acknowledgement (RFC 9000 §19.2)."""

    def encode(self) -> bytes:
        """Serialise to the one-byte wire form."""
        return bytes([FRAME_PING])


@dataclass(slots=True)
class AckEcnFrame:
    """An ACK frame with ECN counts (RFC 9000 §19.3.2).

    ``ect0``/``ect1``/``ce`` are cumulative totals of packets the
    sender of this frame received with each ECN codepoint, counted
    once per distinct packet number — the feedback §13.4 validation
    compares against what was actually sent.
    """

    largest_acked: int = 0
    acked_count: int = 0
    ect0: int = 0
    ect1: int = 0
    ce: int = 0

    def encode(self) -> bytes:
        """Serialise to the wire form (type byte + five counters)."""
        return bytes([FRAME_ACK_ECN]) + _ACK_ECN.pack(
            self.largest_acked, self.acked_count, self.ect0, self.ect1, self.ce
        )


@dataclass(slots=True)
class CryptoFrame:
    """A CRYPTO frame carrying a fixed 8-byte hello token."""

    token: bytes = CLIENT_HELLO

    def validate(self) -> None:
        """Raise :class:`CodecError` unless the token fits the wire form."""
        if len(self.token) != _CRYPTO_LEN:
            raise CodecError(f"CRYPTO token must be {_CRYPTO_LEN} bytes: {self.token!r}")

    def encode(self) -> bytes:
        """Serialise to the wire form (type byte + 8-byte token)."""
        self.validate()
        return bytes([FRAME_CRYPTO]) + self.token


Frame = PingFrame | AckEcnFrame | CryptoFrame


@dataclass(slots=True)
class QUICPacket:
    """A parsed QUIC-like packet: header plus a list of frames.

    The connection ID is masked to its 32 wire bits when the packet is
    built, so a packet equals ``decode`` of its own bytes and can ride
    a :class:`~repro.netsim.udp.UDPDatagram` as the object.
    """

    ptype: int = TYPE_INITIAL
    cid: int = 0
    packet_number: int = 0
    frames: list[Frame] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cid &= 0xFFFFFFFF

    def validate(self) -> None:
        """Make every check :meth:`encode` makes; raises :class:`CodecError`."""
        if self.ptype not in (TYPE_INITIAL, TYPE_ONE_RTT):
            raise CodecError(f"QUIC packet type out of range: {self.ptype}")
        for frame in self.frames:
            if frame.__class__ is CryptoFrame:
                frame.validate()

    def encode(self) -> bytes:
        """Serialise header and frames to the wire format."""
        self.validate()
        out = _HEADER.pack(self.ptype, self.cid, self.packet_number)
        return out + b"".join(frame.encode() for frame in self.frames)

    @classmethod
    def decode(cls, data: bytes) -> "QUICPacket":
        """Parse the wire format; raises :class:`CodecError` on damage."""
        if len(data) < _HEADER.size:
            raise CodecError(f"QUIC packet truncated: {len(data)} bytes")
        ptype, cid, packet_number = _HEADER.unpack_from(data)
        if ptype not in (TYPE_INITIAL, TYPE_ONE_RTT):
            raise CodecError(f"unknown QUIC packet type: {ptype}")
        frames: list[Frame] = []
        offset = _HEADER.size
        while offset < len(data):
            ftype = data[offset]
            offset += 1
            if ftype == FRAME_PING:
                frames.append(PingFrame())
            elif ftype == FRAME_ACK_ECN:
                if offset + _ACK_ECN.size > len(data):
                    raise CodecError(f"ACK_ECN frame truncated at offset {offset}")
                largest, count, ect0, ect1, ce = _ACK_ECN.unpack_from(data, offset)
                offset += _ACK_ECN.size
                frames.append(
                    AckEcnFrame(
                        largest_acked=largest,
                        acked_count=count,
                        ect0=ect0,
                        ect1=ect1,
                        ce=ce,
                    )
                )
            elif ftype == FRAME_CRYPTO:
                if offset + _CRYPTO_LEN > len(data):
                    raise CodecError(f"CRYPTO frame truncated at offset {offset}")
                frames.append(CryptoFrame(token=bytes(data[offset : offset + _CRYPTO_LEN])))
                offset += _CRYPTO_LEN
            else:
                raise CodecError(f"unknown QUIC frame type: {ftype:#x}")
        return cls(ptype=ptype, cid=cid, packet_number=packet_number, frames=frames)

    def first_ack_ecn(self) -> AckEcnFrame | None:
        """Return the first ACK_ECN frame, if any."""
        for frame in self.frames:
            if frame.__class__ is AckEcnFrame:
                return frame
        return None

    def has_crypto(self, token: bytes) -> bool:
        """True if any CRYPTO frame carries exactly ``token``."""
        for frame in self.frames:
            if frame.__class__ is CryptoFrame and frame.token == token:
                return True
        return False

    def __repr__(self) -> str:
        kind = "Initial" if self.ptype == TYPE_INITIAL else "1-RTT"
        return (
            f"QUICPacket({kind}, cid={self.cid:#x}, "
            f"pn={self.packet_number}, frames={len(self.frames)})"
        )
