"""Routers: per-hop packet processing.

A router applies its middlebox chain, enforces TTL, and (optionally)
originates ICMP errors.  The per-hop logic is a pure function of
(router state, packet, RNG) so the same code runs under the hop-by-hop
event engine and the analytic fast path — keeping the two execution
modes behaviourally identical is a core design requirement (see
DESIGN.md §2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .icmp import CLASSIC_QUOTE_PAYLOAD, time_exceeded
from .ipv4 import IPv4Packet
from .middlebox import Middlebox

#: Hop verdicts returned by :meth:`Router._transit`.
TRANSIT_FORWARD = 0
TRANSIT_DROP = 1
TRANSIT_TTL_EXPIRED = 2


@dataclass
class Router:
    """A router (or layer-3 middlebox host) in the topology.

    Parameters
    ----------
    router_id:
        Unique name within the topology.
    asn:
        Autonomous system the router belongs to (drives the paper's
        AS-boundary analysis of where ECT marks are stripped).
    interface_addr:
        The address this router sources ICMP errors from; also the
        address a traceroute shows for this hop.
    middleboxes:
        Policy chain applied to transit packets, in order.
    sends_icmp_errors:
        False models routers/firewalls that silently discard expired
        packets; traceroute sees a missing hop.
    icmp_quote_payload:
        How many payload bytes past the IP header this router quotes
        in ICMP errors (8 = RFC 792 classic; larger = RFC 1812-style).
    icmp_response_rate:
        Probability of answering a TTL expiry (models ICMP rate
        limiting, which makes real traceroutes lossy).
    """

    router_id: str
    asn: int
    interface_addr: int
    middleboxes: list[Middlebox] = field(default_factory=list)
    sends_icmp_errors: bool = True
    icmp_quote_payload: int = CLASSIC_QUOTE_PAYLOAD
    icmp_response_rate: float = 1.0

    def add_middlebox(self, box: Middlebox) -> None:
        """Append a policy to the transit chain."""
        self.middleboxes.append(box)

    def _transit(
        self,
        packet: IPv4Packet,
        rng: random.Random,
        metrics,
        tracer,
    ):
        """Process a transiting packet: ``(verdict, packet, icmp, reason)``.

        Order: middlebox chain first (a firewall in front of the
        routing engine), then TTL check, then decrement.  The ICMP
        quotation is built from the packet *after* middlebox rewrites,
        so an upstream bleached mark is visible in the quote — exactly
        the observable the paper's Section 4.2 measures.  ``icmp`` is
        the error the router originates, None when it stays silent.

        The packet is simulator-owned: the TTL decrement mutates it in
        place, while middlebox rewrites return fresh objects; the
        returned ``packet`` is the one to keep using.  The network's
        per-hop loop calls this directly, so the dominant case — no
        middleboxes, TTL fine, observability off — costs one in-place
        decrement and a tuple.  ``metrics`` / ``tracer`` are the
        :mod:`repro.obs` hooks, falsey when disabled, and never draw
        from ``rng``.
        """
        if self.middleboxes or tracer:
            return self._transit_slow(packet, rng, metrics, tracer)
        if packet.ttl <= 1:
            icmp = None
            if self.sends_icmp_errors and (
                self.icmp_response_rate >= 1.0
                or rng.random() < self.icmp_response_rate
            ):
                # The quotation must show TTL 0 (the value on the wire
                # when the counter expired).  Flip it just for the
                # immediate encode inside time_exceeded, then restore,
                # so observers of the live object see the arrival TTL.
                saved_ttl = packet.ttl
                packet.ttl = 0
                icmp = time_exceeded(packet, self.icmp_quote_payload)
                packet.ttl = saved_ttl
            if metrics:
                metrics.incr("router.ttl_expired")
                if icmp is not None:
                    metrics.incr("router.icmp_generated")
            return TRANSIT_TTL_EXPIRED, packet, icmp, "ttl expired"
        packet.ttl -= 1
        if metrics:
            metrics.incr("router.forwarded")
        return TRANSIT_FORWARD, packet, None, ""

    def _transit_slow(
        self,
        packet: IPv4Packet,
        rng: random.Random,
        metrics,
        tracer,
    ):
        """Full transit path: middlebox chain and/or packet tracing."""
        traced = tracer and tracer.wants(packet)
        for box in self.middleboxes:
            before = packet.ecn
            verdict = box.process(packet, rng)
            if verdict.dropped:
                if metrics:
                    metrics.incr(f"middlebox.{box.name}")
                if traced:
                    tracer.record(
                        packet, self.router_id, f"drop:{box.name}", before, before
                    )
                return (
                    TRANSIT_DROP,
                    packet,
                    None,
                    f"{box.name}: {verdict.reason}",
                )
            if verdict.reason:
                if metrics:
                    metrics.incr(f"middlebox.{box.name}")
                if traced:
                    tracer.record(
                        verdict.packet,
                        self.router_id,
                        f"middlebox:{box.name}",
                        before,
                        verdict.packet.ecn,
                    )
            packet = verdict.packet

        if packet.ttl <= 1:
            icmp = None
            if self.sends_icmp_errors and (
                self.icmp_response_rate >= 1.0
                or rng.random() < self.icmp_response_rate
            ):
                saved_ttl = packet.ttl
                packet.ttl = 0
                icmp = time_exceeded(packet, self.icmp_quote_payload)
                packet.ttl = saved_ttl
            if metrics:
                metrics.incr("router.ttl_expired")
                if icmp is not None:
                    metrics.incr("router.icmp_generated")
            if traced:
                action = "ttl-expired" if icmp is None else "ttl-expired+icmp"
                tracer.record(packet, self.router_id, action, packet.ecn, packet.ecn)
            return TRANSIT_TTL_EXPIRED, packet, icmp, "ttl expired"

        packet.ttl -= 1
        if metrics:
            metrics.incr("router.forwarded")
        if traced:
            tracer.record(packet, self.router_id, "forward", packet.ecn, packet.ecn)
        return TRANSIT_FORWARD, packet, None, ""

    def __repr__(self) -> str:
        return f"Router({self.router_id}, AS{self.asn})"
