"""Middlebox behaviours that interfere with ECN.

The paper's central question is whether middleboxes treat ECT-marked
UDP as suspicious.  Each behaviour observed (or hypothesised) in the
paper is a small policy object attached to a router:

* :class:`ECTBleacher` — rewrites ECT(0)/ECT(1) back to not-ECT but
  forwards the packet.  Section 4.2 finds ~1143 of 155 439 hops doing
  this, 125 of them only *sometimes* (``probability < 1``).  By
  default it also bleaches CE → not-ECT (``bleach_ce=True``) —
  destroying the congestion signal itself, the exact event QUIC's
  §13.4 count validation exists to detect; set ``bleach_ce=False``
  for gear that only normalises ECT capability bits and lets CE
  through.
* :class:`ECTDropper` — silently discards ECT-marked packets, for UDP
  only or for all protocols.  Section 4.1's dozen persistently
  ECT-unreachable servers sit behind UDP-scoped instances; Section 4.4
  shows most of those still pass ECT-marked **TCP**, which is exactly
  the ``protocols={PROTO_UDP}`` scoping.
* :class:`NotECTDropper` — the oddballs of Figure 3b: servers
  reachable with ECT(0) but not with not-ECT packets (two of them,
  run by the Phoenix Public Library, only from EC2 source addresses —
  expressed with ``src_prefixes``).
* :class:`TOSBleacher` — zeroes the whole TOS byte (DSCP + ECN), a
  behaviour older "TOS-washing" gear exhibits.

Every policy filters on protocol, destination addresses and source
prefixes, so scenario code can scope interference to specific servers
or vantage points, matching the paper's per-path observations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ecn import ECN
from .ipv4 import IPv4Packet, Prefix

#: Verdict constants returned by :meth:`Middlebox.process`.
FORWARD = "forward"
DROP = "drop"


@dataclass
class Verdict:
    """Result of passing a packet through one middlebox."""

    action: str
    packet: IPv4Packet
    reason: str = ""

    @property
    def dropped(self) -> bool:
        return self.action == DROP


@dataclass
class Middlebox:
    """Base middlebox: match conditions plus an action hook.

    Subclasses override :meth:`apply`; this base class handles scoping.
    ``probability`` makes the behaviour intermittent (route-flap or
    load-balancer effects in the paper's "sometimes strip" hops).
    """

    name: str = "middlebox"
    protocols: frozenset[int] | None = None
    dst_addrs: frozenset[int] | None = None
    src_prefixes: tuple[Prefix, ...] | None = None
    probability: float = 1.0

    def matches(self, packet: IPv4Packet) -> bool:
        """True if the packet is in scope for this policy."""
        if self.protocols is not None and packet.protocol not in self.protocols:
            return False
        if self.dst_addrs is not None and packet.dst not in self.dst_addrs:
            return False
        if self.src_prefixes is not None and not any(
            prefix.contains(packet.src) for prefix in self.src_prefixes
        ):
            return False
        return True

    def process(self, packet: IPv4Packet, rng: random.Random) -> Verdict:
        """Apply the policy (subject to scope and probability)."""
        if not self.matches(packet):
            return Verdict(FORWARD, packet)
        if self.probability < 1.0 and rng.random() >= self.probability:
            return Verdict(FORWARD, packet)
        return self.apply(packet)

    def apply(self, packet: IPv4Packet) -> Verdict:
        raise NotImplementedError


@dataclass
class ECTBleacher(Middlebox):
    """Rewrite ECT(0)/ECT(1) to not-ECT; forward the packet.

    ``bleach_ce`` controls what happens to CE-marked packets: True
    (the default, matching the golden-pinned behaviour) erases the
    congestion signal too; False forwards CE untouched, modelling
    middleboxes that only strip the capability codepoints.
    """

    name: str = "ect-bleacher"
    bleach_ce: bool = True

    def apply(self, packet: IPv4Packet) -> Verdict:
        if packet.ecn is ECN.NOT_ECT:
            return Verdict(FORWARD, packet)
        if packet.ecn is ECN.CE and not self.bleach_ce:
            return Verdict(FORWARD, packet)
        return Verdict(
            FORWARD,
            packet.with_ecn(ECN.NOT_ECT),
            reason="ECN field bleached to not-ECT",
        )


@dataclass
class ECTDropper(Middlebox):
    """Silently drop packets carrying any ECT/CE codepoint."""

    name: str = "ect-dropper"

    def apply(self, packet: IPv4Packet) -> Verdict:
        if packet.ecn is ECN.NOT_ECT:
            return Verdict(FORWARD, packet)
        return Verdict(DROP, packet, reason="ECT-marked packet dropped")


@dataclass
class NotECTDropper(Middlebox):
    """Drop packets whose ECN field is not-ECT (the Figure 3b oddity)."""

    name: str = "not-ect-dropper"

    def apply(self, packet: IPv4Packet) -> Verdict:
        if packet.ecn is not ECN.NOT_ECT:
            return Verdict(FORWARD, packet)
        return Verdict(DROP, packet, reason="not-ECT packet dropped")


@dataclass
class ProtocolBlackhole(Middlebox):
    """Silently drop every in-scope packet, regardless of marking.

    Models a service (or box) that has gone entirely dark for some
    traffic class — e.g. an NTP daemon browning out while the host's
    IP stays live.  The fault-injection layer scopes instances by
    protocol and wraps them in time windows (:mod:`repro.faults`).
    """

    name: str = "blackhole"

    def apply(self, packet: IPv4Packet) -> Verdict:
        return Verdict(DROP, packet, reason="blackholed")


@dataclass
class TOSBleacher(Middlebox):
    """Zero the entire TOS byte (clears DSCP and ECN together)."""

    name: str = "tos-bleacher"

    def apply(self, packet: IPv4Packet) -> Verdict:
        if packet.tos == 0:
            return Verdict(FORWARD, packet)
        cleaned = packet.replace(tos=0)
        return Verdict(FORWARD, cleaned, reason="TOS byte zeroed")
