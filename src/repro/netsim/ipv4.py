"""IPv4 addressing and header codec.

Addresses are 32-bit integers throughout the simulator's hot paths;
:func:`parse_addr` / :func:`format_addr` convert to and from dotted
quads at the edges.  The header codec is byte-exact (RFC 791) including
the header checksum, because the traceroute analysis compares the
bytes a router quotes inside ICMP errors against the bytes originally
sent — the core technique of the paper's Section 4.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum
from .ecn import DSCP_MASK, ECN, ECN_BY_CODE
from .errors import AddressError, CodecError

#: IP protocol numbers used in this project.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_HEADER = struct.Struct("!BBHHHBBHII")
HEADER_LEN = _HEADER.size  # 20 — we do not emit IP options
DEFAULT_TTL = 64


def parse_addr(text: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_addr(addr: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    if not 0 <= addr <= 0xFFFFFFFF:
        raise AddressError(f"address out of range: {addr!r}")
    return f"{(addr >> 24) & 0xFF}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}"


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix (network address plus mask length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            raise AddressError(
                f"host bits set in prefix {format_addr(self.network)}/{self.length}"
            )

    @property
    def mask(self) -> int:
        """Network mask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this prefix."""
        return (addr & self.mask) == self.network

    def host(self, index: int) -> int:
        """Return the ``index``-th address inside the prefix."""
        if not 0 <= index < self.size:
            raise AddressError(f"host index {index} outside /{self.length}")
        return self.network + index

    def __str__(self) -> str:
        return f"{format_addr(self.network)}/{self.length}"


class IPv4Packet:
    """A parsed IPv4 datagram, packed for the simulator's hot path.

    The simulator moves these objects between nodes; the byte form is
    produced on demand (capture, ICMP quotation) via :meth:`encode`.
    ``ident`` mirrors the IP identification field, which the probing
    code uses to correlate ICMP quotations with the probes that
    elicited them.

    Ownership contract: a packet handed to the network belongs to it.
    The network mutates it **in place** (:attr:`ttl` decrements,
    :meth:`set_ecn` CE marks) instead of copying it at the boundary or
    allocating a fresh object per hop, so a sender builds a new packet
    for every send and does not read it afterwards.  Middlebox and
    host-filter rewrites keep copy-on-write semantics via
    :meth:`replace` / :meth:`with_ecn`.

    The header checksum never requires serialising the header:
    :meth:`encode` folds the nine 16-bit header words arithmetically
    from the fields, which is the closed form of RFC 1624's incremental
    update — a TTL decrement or TOS rewrite changes one word, and the
    checksum cost stays O(1) regardless of how many mutations occurred.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "payload",
        "ttl",
        "tos",
        "ident",
        "dont_fragment",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        protocol: int,
        payload: bytes = b"",
        ttl: int = DEFAULT_TTL,
        tos: int = 0,
        ident: int = 0,
        dont_fragment: bool = True,
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.tos = tos
        self.ident = ident
        self.dont_fragment = dont_fragment

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IPv4Packet):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.protocol == other.protocol
            and self.payload == other.payload
            and self.ttl == other.ttl
            and self.tos == other.tos
            and self.ident == other.ident
            and self.dont_fragment == other.dont_fragment
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclass

    def copy(self) -> "IPv4Packet":
        """Fast field-for-field copy (behind :meth:`replace` / :meth:`with_ecn`)."""
        new = IPv4Packet.__new__(IPv4Packet)
        new.src = self.src
        new.dst = self.dst
        new.protocol = self.protocol
        new.payload = self.payload
        new.ttl = self.ttl
        new.tos = self.tos
        new.ident = self.ident
        new.dont_fragment = self.dont_fragment
        return new

    def replace(self, **changes: object) -> "IPv4Packet":
        """Return a copy with ``changes`` applied (dataclasses.replace shape)."""
        new = self.copy()
        for name, value in changes.items():
            if name not in IPv4Packet.__slots__:
                raise TypeError(f"IPv4Packet has no field {name!r}")
            setattr(new, name, value)
        return new

    @property
    def ecn(self) -> ECN:
        """ECN codepoint carried in the TOS byte."""
        return ECN_BY_CODE[self.tos & 3]

    def with_ecn(self, ecn: ECN) -> "IPv4Packet":
        """Return a copy with the ECN field rewritten (DSCP preserved)."""
        new = self.copy()
        new.tos = (new.tos & DSCP_MASK) | ecn
        return new

    def set_ecn(self, ecn: ECN) -> None:
        """Rewrite the ECN field in place (simulator-owned packets only)."""
        self.tos = (self.tos & DSCP_MASK) | ecn

    @property
    def total_length(self) -> int:
        """Total datagram length (header + payload), in bytes."""
        return HEADER_LEN + len(self.payload)

    def encode(self) -> bytes:
        """Serialise to wire format with a correct header checksum."""
        ttl = self.ttl
        if not 0 <= ttl <= 255:
            raise CodecError(f"TTL out of range: {ttl}")
        ident = self.ident
        if not 0 <= ident <= 0xFFFF:
            raise CodecError(f"IP ident out of range: {ident}")
        tos = self.tos
        src = self.src
        dst = self.dst
        total_length = HEADER_LEN + len(self.payload)
        flags_frag = 0x4000 if self.dont_fragment else 0
        # One's-complement sum of the nine non-checksum header words,
        # computed straight from the fields (see class docstring).  Nine
        # words sum below 0x90000, so two folds absorb every carry.
        total = (
            0x4500
            + tos
            + total_length
            + ident
            + flags_frag
            + ((ttl << 8) | self.protocol)
            + (src >> 16)
            + (src & 0xFFFF)
            + (dst >> 16)
            + (dst & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return (
            _HEADER.pack(
                0x45,
                tos,
                total_length,
                ident,
                flags_frag,
                ttl,
                self.protocol,
                ~total & 0xFFFF,
                src,
                dst,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "IPv4Packet":
        """Parse wire bytes into a packet.

        Parameters
        ----------
        data:
            The datagram, possibly truncated *after* the header (ICMP
            quotations frequently truncate the transport payload; the
            header itself must be complete).
        verify:
            When True, a wrong header checksum raises
            :class:`CodecError`.
        """
        if len(data) < HEADER_LEN:
            raise CodecError(f"IPv4 header truncated: {len(data)} bytes")
        (
            ver_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            protocol,
            csum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        if ver_ihl >> 4 != 4:
            raise CodecError(f"not IPv4: version={ver_ihl >> 4}")
        ihl = (ver_ihl & 0xF) * 4
        if ihl < HEADER_LEN or len(data) < ihl:
            raise CodecError(f"bad IHL: {ihl}")
        if verify and internet_checksum(data[:ihl]) != 0:
            raise CodecError("IPv4 header checksum mismatch")
        payload = data[ihl : total_length if total_length >= ihl else None]
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            payload=payload,
            ttl=ttl,
            tos=tos,
            ident=ident,
            dont_fragment=bool(flags_frag & 0x4000),
        )

    def __repr__(self) -> str:
        return (
            f"IPv4Packet({format_addr(self.src)} -> {format_addr(self.dst)}, "
            f"proto={self.protocol}, ttl={self.ttl}, ecn={self.ecn.describe()}, "
            f"len={self.total_length})"
        )


class TransportPacket(IPv4Packet):
    """An IPv4 packet that carries its transport message as an object.

    ``body`` is the TCP segment or UDP datagram (anything with
    ``encode(src, dst)``), and the receiving stack reads it directly.
    The bytes are encoded only when something reads :attr:`payload` (an
    ICMP quote, a capture, ``==``, :attr:`total_length`), then kept.
    They equal an eager encode at send time: nothing on a path rewrites
    the addresses the checksum covers, and the payload cannot be
    reassigned.
    """

    __slots__ = ("body", "_wire")

    def __init__(
        self, src: int, dst: int, protocol: int, body, ttl: int, tos: int, ident: int
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.body = body
        self._wire: bytes | None = None
        self.ttl = ttl
        self.tos = tos
        self.ident = ident
        self.dont_fragment = True

    @property  # type: ignore[override]
    def payload(self) -> bytes:  # type: ignore[override]
        wire = self._wire
        if wire is None:
            wire = self._wire = self.body.encode(self.src, self.dst)
        return wire

    def copy(self) -> "TransportPacket":
        new = TransportPacket.__new__(TransportPacket)
        new.src = self.src
        new.dst = self.dst
        new.protocol = self.protocol
        new.body = self.body
        new._wire = self._wire
        new.ttl = self.ttl
        new.tos = self.tos
        new.ident = self.ident
        new.dont_fragment = self.dont_fragment
        return new
