"""TCP segment codec (RFC 793 header, RFC 3168 ECE/CWR flags).

The paper's TCP experiment is entirely about two header bits: an
"ECN-setup SYN" carries ECE+CWR, and a server agreeing to use ECN
answers with an "ECN-setup SYN-ACK" carrying ECE but **not** CWR.  The
codec is byte-exact (including the pseudo-header checksum) so captures
show what a real tcpdump would show.
"""

from __future__ import annotations

import enum
import struct

from ..netsim.checksum import data_sum16, internet_checksum, pseudo_header
from ..netsim.errors import CodecError
from ..netsim.ipv4 import PROTO_TCP

_HEADER = struct.Struct("!HHIIBBHHH")
HEADER_LEN = _HEADER.size  # 20 bytes without options

#: Option kinds we encode/decode.
OPT_END = 0
OPT_NOP = 1
OPT_MSS = 2

DEFAULT_MSS = 1460


class Flags(enum.IntFlag):
    """TCP header flags, including the ECN pair from RFC 3168."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


#: Plain-int mirrors of the flag bits.  ``IntFlag`` bitwise operators
#: construct a new enum instance per ``&``/``|`` — measurably hot when
#: every segment is tested against half a dozen masks — so the segment
#: stores its flags as a plain ``int`` and the hot paths combine these
#: constants with native int arithmetic instead.
FIN, SYN, RST, PSH, ACK, URG, ECE, CWR = (int(flag) for flag in Flags)


class TCPSegment:
    """A TCP segment.  Construction masks ``seq``/``ack`` to 32 bits and
    ``flags`` to a plain ``int`` (``Flags`` members accepted), as the
    wire would: a segment equals ``decode(encode(...))`` of itself, so
    a :class:`~repro.netsim.ipv4.TransportPacket` can carry the object,
    and flag tests stay int-fast.
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "payload", "mss")

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
        payload: bytes = b"",
        mss: int | None = None,
    ) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = int(flags) & 0xFF
        self.window = window
        self.payload = payload
        self.mss = mss

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TCPSegment:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]  # mutable

    # ------------------------------------------------------------------
    # Flag conveniences
    # ------------------------------------------------------------------
    @property
    def is_syn(self) -> bool:
        return (self.flags & (SYN | ACK)) == SYN

    @property
    def is_synack(self) -> bool:
        return (self.flags & (SYN | ACK)) == (SYN | ACK)

    @property
    def is_ecn_setup_syn(self) -> bool:
        """SYN with both ECE and CWR set: the client requests ECN."""
        return (self.flags & (SYN | ACK | ECE | CWR)) == (SYN | ECE | CWR)

    @property
    def is_ecn_setup_synack(self) -> bool:
        """SYN-ACK with ECE set and CWR clear: the server accepts ECN.

        RFC 3168 §6.1.1: a SYN-ACK with both ECE and CWR is *not* a
        valid ECN-setup SYN-ACK (it indicates a broken or reflecting
        implementation) and MUST be treated as non-ECN-setup.
        """
        return (self.flags & (SYN | ACK | ECE | CWR)) == (SYN | ACK | ECE)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self, src_addr: int, dst_addr: int) -> bytes:
        """Serialise with checksum over the IPv4 pseudo-header.

        The checksum is computed arithmetically from the header fields
        and pseudo-header values (RFC 1071 sums are order-independent
        16-bit adds), so only the options+payload tail — empty for the
        pure ACKs that dominate a connection — needs a byte sweep, and
        the header is packed exactly once.
        """
        if not 0 <= self.src_port <= 0xFFFF:
            raise CodecError(f"TCP src port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 0xFFFF:
            raise CodecError(f"TCP dst port out of range: {self.dst_port}")
        options = b""
        if self.mss is not None:
            options = struct.pack("!BBH", OPT_MSS, 4, self.mss)
        # Pad options to a 32-bit boundary.
        while len(options) % 4:
            options += bytes((OPT_NOP,))
        data_offset = (HEADER_LEN + len(options)) // 4
        flag_byte = self.flags & 0xFF
        seq = self.seq & 0xFFFFFFFF
        ack = self.ack & 0xFFFFFFFF
        src = src_addr & 0xFFFFFFFF
        dst = dst_addr & 0xFFFFFFFF
        tail = options + self.payload
        length = HEADER_LEN + len(tail)
        total = (
            # pseudo-header: addresses, protocol, TCP length
            (src >> 16) + (src & 0xFFFF)
            + (dst >> 16) + (dst & 0xFFFF)
            + PROTO_TCP + (length & 0xFFFF)
            # header words (checksum field itself counts as zero)
            + self.src_port + self.dst_port
            + (seq >> 16) + (seq & 0xFFFF)
            + (ack >> 16) + (ack & 0xFFFF)
            + ((data_offset << 12) | flag_byte)
            + self.window
            + (data_sum16(tail) if tail else 0)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return (
            _HEADER.pack(
                self.src_port,
                self.dst_port,
                seq,
                ack,
                data_offset << 4,
                flag_byte,
                self.window,
                ~total & 0xFFFF,
                0,
            )
            + tail
        )

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_addr: int | None = None,
        dst_addr: int | None = None,
        verify: bool = False,
    ) -> "TCPSegment":
        """Parse wire bytes (checksum verified only on request)."""
        if len(data) < HEADER_LEN:
            raise CodecError(f"TCP header truncated: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_byte,
            flag_byte,
            window,
            _csum,
            _urgent,
        ) = _HEADER.unpack_from(data)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < HEADER_LEN or len(data) < data_offset:
            raise CodecError(f"bad TCP data offset: {data_offset}")
        if verify:
            if src_addr is None or dst_addr is None:
                raise CodecError("TCP checksum verification needs IP addresses")
            pseudo = pseudo_header(src_addr, dst_addr, PROTO_TCP, len(data))
            if internet_checksum(pseudo + data) != 0:
                raise CodecError("TCP checksum mismatch")
        mss = _parse_mss(data[HEADER_LEN:data_offset]) if data_offset > HEADER_LEN else None
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flag_byte,
            window=window,
            payload=data[data_offset:],
            mss=mss,
        )

    def __repr__(self) -> str:
        names = [flag.name for flag in Flags if self.flags & flag]
        return (
            f"TCPSegment({self.src_port} -> {self.dst_port}, "
            f"seq={self.seq}, ack={self.ack}, flags={'|'.join(names) or '-'}, "
            f"len={len(self.payload)})"
        )


def _parse_mss(options: bytes) -> int | None:
    """Extract the MSS option value, if present."""
    i = 0
    while i < len(options):
        kind = options[i]
        if kind == OPT_END:
            break
        if kind == OPT_NOP:
            i += 1
            continue
        if i + 1 >= len(options):
            break
        length = options[i + 1]
        if length < 2 or i + length > len(options):
            break
        if kind == OPT_MSS and length == 4:
            return struct.unpack_from("!H", options, i + 2)[0]
        i += length
    return None
