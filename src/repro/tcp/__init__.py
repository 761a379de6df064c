"""TCP with RFC 3168 ECN negotiation over the simulated IP layer."""

from .connection import (
    ConnState,
    ECNServerPolicy,
    ECNStats,
    TCPConnection,
    TCPListener,
    TCPStack,
)
from .segment import (
    DEFAULT_MSS,
    Flags,
    TCPSegment,
)

__all__ = [
    "ConnState",
    "DEFAULT_MSS",
    "ECNServerPolicy",
    "ECNStats",
    "Flags",
    "TCPConnection",
    "TCPListener",
    "TCPSegment",
    "TCPStack",
]
