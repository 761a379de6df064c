"""UDP datagram codec (RFC 768).

UDP is the paper's protocol under test: NTP requests ride in UDP
datagrams whose enclosing IP header carries either not-ECT or ECT(0).
The codec computes the optional UDP checksum over the IPv4
pseudo-header so captures and ICMP quotations are byte-faithful.
"""

from __future__ import annotations

import struct

from .checksum import internet_checksum, pseudo_header
from .errors import CodecError
from .ipv4 import PROTO_UDP

_HEADER = struct.Struct("!HHHH")
HEADER_LEN = _HEADER.size  # 8


class UDPDatagram:
    """A UDP datagram: header fields plus a payload.

    ``payload`` is either bytes or an application message (a
    :class:`~repro.protocols.quic.packet.QUICPacket` or
    :class:`~repro.protocols.ntp.packet.NTPPacket`: anything with
    ``validate()`` and ``encode()``).  A message is checked here, at
    send, with every check its ``encode`` makes, and rides in
    :attr:`message` so the receiving application reads the object
    itself (:meth:`read`).  Its bytes are encoded only when something
    reads :attr:`payload` (an ICMP quote, :meth:`encode`, ``==``), then
    kept; a datagram parsed from bytes has ``message`` None.

    Ownership contract: a message handed to a datagram is never
    mutated afterwards, by its sender or by whoever reads it, so the
    bytes encoded whenever they are first read are the bytes an eager
    encode at send time would have produced.
    """

    __slots__ = ("src_port", "dst_port", "message", "_payload")

    def __init__(self, src_port: int, dst_port: int, payload=b"") -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        if payload.__class__ is not bytes and hasattr(payload, "validate"):
            payload.validate()
            self.message = payload
            self._payload = None
        else:
            self.message = None
            self._payload = payload

    @property
    def payload(self) -> bytes:
        """The payload bytes (a carried message is encoded on first read)."""
        payload = self._payload
        if payload is None:
            payload = self._payload = self.message.encode()
        return payload

    def read(self, cls):
        """The carried message if it is a ``cls``, else ``cls.decode`` of
        the payload bytes (which raises :class:`CodecError` on damage)."""
        message = self.message
        return message if message.__class__ is cls else cls.decode(self.payload)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not UDPDatagram:
            return NotImplemented
        return (
            self.src_port == other.src_port
            and self.dst_port == other.dst_port
            and self.payload == other.payload
        )

    @property
    def length(self) -> int:
        """Value of the UDP length field (header + payload)."""
        return HEADER_LEN + len(self.payload)

    def encode(self, src_addr: int, dst_addr: int) -> bytes:
        """Serialise with a checksum over the IPv4 pseudo-header."""
        for name, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise CodecError(f"UDP {name} port out of range: {port}")
        header = _HEADER.pack(self.src_port, self.dst_port, self.length, 0)
        pseudo = pseudo_header(src_addr, dst_addr, PROTO_UDP, self.length)
        csum = internet_checksum(pseudo + header + self.payload)
        if csum == 0:
            csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        return header[:6] + struct.pack("!H", csum) + self.payload

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_addr: int | None = None,
        dst_addr: int | None = None,
        verify: bool = False,
    ) -> "UDPDatagram":
        """Parse wire bytes.

        Quotations may truncate the payload; the 8-byte header must be
        intact (this matches what classic routers quote: IP header plus
        the first 8 bytes of the transport datagram — exactly the UDP
        header).  Checksum verification needs the addresses from the
        enclosing IP header and a complete payload.
        """
        if len(data) < HEADER_LEN:
            raise CodecError(f"UDP header truncated: {len(data)} bytes")
        src_port, dst_port, length, csum = _HEADER.unpack_from(data)
        if length < HEADER_LEN:
            raise CodecError(f"bad UDP length field: {length}")
        payload = data[HEADER_LEN:length]
        if verify:
            if src_addr is None or dst_addr is None:
                raise CodecError("UDP checksum verification needs IP addresses")
            if len(data) < length:
                raise CodecError("cannot verify checksum of truncated datagram")
            if csum != 0:
                pseudo = pseudo_header(src_addr, dst_addr, PROTO_UDP, length)
                if internet_checksum(pseudo + data[:length]) != 0:
                    raise CodecError("UDP checksum mismatch")
        return cls(src_port=src_port, dst_port=dst_port, payload=payload)

    def __repr__(self) -> str:
        return (
            f"UDPDatagram({self.src_port} -> {self.dst_port}, "
            f"len={self.length})"
        )
