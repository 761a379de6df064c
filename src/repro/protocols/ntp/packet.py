"""NTP packet codec (the RFC 5905 SNTP subset the study exercises).

The measurement application implements "a custom NTP client": it sends
a mode-3 (client) request and records whether a mode-4 (server)
response returns.  The 48-byte header is encoded byte-exactly,
timestamps in NTP's 32.32 fixed-point era format, so captures and
quotations are realistic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ...netsim.errors import CodecError

NTP_PORT = 123
PACKET_LEN = 48

MODE_CLIENT = 3
MODE_SERVER = 4

LEAP_NO_WARNING = 0
LEAP_UNSYNCHRONISED = 3

VERSION = 4

_FORMAT = struct.Struct("!BBbbIIIQQQQ")

#: Scale factor for 32.32 fixed-point timestamps.
_FRAC = 1 << 32


def to_ntp_timestamp(seconds: float) -> int:
    """Convert seconds-since-NTP-epoch to 64-bit 32.32 fixed point."""
    if seconds < 0:
        raise CodecError(f"negative NTP time: {seconds!r}")
    return int(seconds * _FRAC) & 0xFFFFFFFFFFFFFFFF


@dataclass
class NTPPacket:
    """A parsed NTP packet (SNTP fields only; no extensions/MACs).

    The three 32-bit header words (``root_delay``, ``root_dispersion``,
    ``reference_id``) are masked to their wire bits when the packet is
    built, so a packet equals ``decode`` of its own bytes and can ride
    a :class:`~repro.netsim.udp.UDPDatagram` as the object.
    """

    mode: int = MODE_CLIENT
    version: int = VERSION
    leap: int = LEAP_NO_WARNING
    stratum: int = 0
    poll: int = 0
    precision: int = -20
    root_delay: int = 0
    root_dispersion: int = 0
    reference_id: int = 0
    reference_ts: int = 0
    origin_ts: int = 0
    receive_ts: int = 0
    transmit_ts: int = 0

    def __post_init__(self) -> None:
        self.root_delay &= 0xFFFFFFFF
        self.root_dispersion &= 0xFFFFFFFF
        self.reference_id &= 0xFFFFFFFF

    def validate(self) -> None:
        """Make every check :meth:`encode` makes; raises :class:`CodecError`."""
        if not 0 <= self.mode <= 7:
            raise CodecError(f"NTP mode out of range: {self.mode}")
        if not 0 <= self.version <= 7:
            raise CodecError(f"NTP version out of range: {self.version}")

    def encode(self) -> bytes:
        """Serialise to the 48-byte wire format."""
        self.validate()
        li_vn_mode = (self.leap << 6) | (self.version << 3) | self.mode
        return _FORMAT.pack(
            li_vn_mode,
            self.stratum,
            self.poll,
            self.precision,
            self.root_delay,
            self.root_dispersion,
            self.reference_id,
            self.reference_ts,
            self.origin_ts,
            self.receive_ts,
            self.transmit_ts,
        )

    @classmethod
    def decode(cls, data: bytes) -> "NTPPacket":
        """Parse the 48-byte wire format (extra trailing bytes ignored)."""
        if len(data) < PACKET_LEN:
            raise CodecError(f"NTP packet truncated: {len(data)} bytes")
        (
            li_vn_mode,
            stratum,
            poll,
            precision,
            root_delay,
            root_dispersion,
            reference_id,
            reference_ts,
            origin_ts,
            receive_ts,
            transmit_ts,
        ) = _FORMAT.unpack_from(data)
        return cls(
            mode=li_vn_mode & 0x07,
            version=(li_vn_mode >> 3) & 0x07,
            leap=(li_vn_mode >> 6) & 0x03,
            stratum=stratum,
            poll=poll,
            precision=precision,
            root_delay=root_delay,
            root_dispersion=root_dispersion,
            reference_id=reference_id,
            reference_ts=reference_ts,
            origin_ts=origin_ts,
            receive_ts=receive_ts,
            transmit_ts=transmit_ts,
        )

    @classmethod
    def client_request(cls, transmit_time_ntp: float) -> "NTPPacket":
        """Build the mode-3 request the measurement client sends."""
        return cls(
            mode=MODE_CLIENT,
            leap=LEAP_UNSYNCHRONISED,
            transmit_ts=to_ntp_timestamp(transmit_time_ntp),
        )

    def is_valid_response_to(self, request: "NTPPacket") -> bool:
        """SNTP response validation: mode 4 echoing our transmit time."""
        return (
            self.mode == MODE_SERVER
            and self.origin_ts == request.transmit_ts
            and self.transmit_ts != 0
        )

    def __repr__(self) -> str:
        return (
            f"NTPPacket(mode={self.mode}, v{self.version}, "
            f"stratum={self.stratum})"
        )
