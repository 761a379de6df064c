"""Packet-level Internet simulator.

This package is the substrate substitution for the public Internet the
paper measured: byte-exact IPv4/UDP/ICMP codecs, a discrete event
engine, routers with middlebox chains and ICMP quotation behaviour,
links with loss and ECN-capable AQM, and a topology/routing layer that
scales to thousands of hosts (see DESIGN.md §2).
"""

from .clock import DEFAULT_EPOCH_ORIGIN, NTP_UNIX_EPOCH_DELTA, SimClock
from .ecn import ECN, dscp_from_tos, ecn_from_tos, tos_byte
from .engine import Event, EventScheduler
from .errors import (
    AddressError,
    CodecError,
    NetSimError,
    RoutingError,
    SimulationError,
    SocketError,
    TopologyError,
)
from .host import Host
from .icmp import (
    CODE_PORT_UNREACHABLE,
    CODE_TTL_EXCEEDED,
    ICMPMessage,
    TYPE_DEST_UNREACHABLE,
    TYPE_TIME_EXCEEDED,
    port_unreachable,
    time_exceeded,
)
from .ipv4 import (
    DEFAULT_TTL,
    IPv4Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Prefix,
    format_addr,
    parse_addr,
)
from .link import Link, link_pair
from .middlebox import (
    ECTBleacher,
    ECTDropper,
    Middlebox,
    NotECTDropper,
    TOSBleacher,
)
from .network import EVENT, FAST, Network, NetworkCounters
from .queues import (
    AQMDecision,
    BernoulliLoss,
    NoCongestion,
    NoLoss,
    REDQueue,
    StaticCongestion,
    TimedOutageLoss,
)
from .router import Router
from .routing import PrefixTrie, RoutingTable
from .sockets import UDPSocket
from .topology import Topology
from .udp import UDPDatagram

__all__ = [
    "AQMDecision",
    "AddressError",
    "BernoulliLoss",
    "CODE_PORT_UNREACHABLE",
    "CODE_TTL_EXCEEDED",
    "CodecError",
    "DEFAULT_EPOCH_ORIGIN",
    "DEFAULT_TTL",
    "ECN",
    "ECTBleacher",
    "ECTDropper",
    "EVENT",
    "Event",
    "EventScheduler",
    "FAST",
    "Host",
    "ICMPMessage",
    "IPv4Packet",
    "Link",
    "Middlebox",
    "NTP_UNIX_EPOCH_DELTA",
    "NetSimError",
    "Network",
    "NetworkCounters",
    "NoCongestion",
    "NoLoss",
    "NotECTDropper",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Prefix",
    "PrefixTrie",
    "REDQueue",
    "Router",
    "RoutingError",
    "RoutingTable",
    "SimClock",
    "SimulationError",
    "SocketError",
    "StaticCongestion",
    "TOSBleacher",
    "TYPE_DEST_UNREACHABLE",
    "TYPE_TIME_EXCEEDED",
    "TimedOutageLoss",
    "Topology",
    "TopologyError",
    "UDPDatagram",
    "UDPSocket",
    "dscp_from_tos",
    "ecn_from_tos",
    "format_addr",
    "link_pair",
    "parse_addr",
    "port_unreachable",
    "time_exceeded",
    "tos_byte",
]
