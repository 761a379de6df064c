"""NTP: packet codec, pool server, measurement client, pool registry."""

from .client import (
    DEFAULT_ATTEMPTS,
    DEFAULT_TIMEOUT,
    NTPQuery,
    NTPQueryResult,
    query_server,
)
from .packet import (
    MODE_CLIENT,
    MODE_SERVER,
    NTP_PORT,
    NTPPacket,
    to_ntp_timestamp,
)
from .pool import NTPPool, POOL_DOMAIN, PoolMember
from .server import NTPServer

__all__ = [
    "DEFAULT_ATTEMPTS",
    "DEFAULT_TIMEOUT",
    "MODE_CLIENT",
    "MODE_SERVER",
    "NTPPacket",
    "NTPPool",
    "NTPQuery",
    "NTPQueryResult",
    "NTPServer",
    "NTP_PORT",
    "POOL_DOMAIN",
    "PoolMember",
    "query_server",
    "to_ntp_timestamp",
]
