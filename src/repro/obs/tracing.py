"""Packet-path tracing: tcpdump plus causality.

A :class:`PathTracer` records, for every packet matching its filter,
the ordered sequence of ``(hop, action, ECN before, ECN after)`` the
packet experienced — which router forwarded it, which middlebox
rewrote or dropped it, which queue CE-marked it, where an ICMP error
was born.  This is exactly the evidence the paper's forensic analyses
need (locating the hop that strips an ECT(0) mark, §4.2; explaining a
transient unreachability from packet-level events, §4.1) and that a
plain end-host capture cannot provide.

Tracing is opt-in and filtered: a disabled tracer is ``None`` at the
call sites, costing one predicate; an enabled one first runs its
match predicate, so unmatched traffic pays one call per hop.  Filters
are either any ``Callable[[IPv4Packet], bool]`` or a tcpdump-flavoured
expression parsed by :func:`parse_filter`::

    udp and dst 10.3.0.7
    icmp or (udp and ect)

Events carry the packet's ``(src, dst, protocol, ident)`` 4-tuple so a
flow's hops can be regrouped after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..netsim.ecn import ECN
from ..netsim.ipv4 import IPv4Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP, format_addr

#: Filter predicate over raw packets.
PacketFilter = Callable[[IPv4Packet], bool]


class FilterError(ValueError):
    """A trace-filter expression could not be parsed."""


@dataclass(frozen=True)
class PathEvent:
    """One observation of a traced packet at one hop."""

    time: float
    src: int
    dst: int
    protocol: int
    ident: int
    hop: str
    action: str
    ecn_before: int
    ecn_after: int

    def describe(self) -> str:
        """One line of the causality log."""
        before = ECN(self.ecn_before).describe()
        after = ECN(self.ecn_after).describe()
        ecn = before if before == after else f"{before} -> {after}"
        return (
            f"{self.time:.6f} {format_addr(self.src)} > {format_addr(self.dst)} "
            f"ident={self.ident} @{self.hop} {self.action} [{ecn}]"
        )


#: Hard cap on the events one tracer stores.
EVENT_LIMIT = 100_000


class PathTracer:
    """Records the per-hop history of packets matching a filter.

    Parameters
    ----------
    match:
        Packet predicate (or expression string for
        :func:`parse_filter`); ``None`` traces every packet.

    At most :data:`EVENT_LIMIT` events are stored; further ones are
    counted in :attr:`dropped`, so a too-broad filter degrades instead
    of exhausting memory.
    """

    def __init__(
        self,
        match: PacketFilter | str | None = None,
    ) -> None:
        self.match: PacketFilter | None = (
            parse_filter(match) if isinstance(match, str) else match
        )
        self.events: list[PathEvent] = []
        self.dropped = 0
        #: Timestamp source for call sites that don't pass ``time``
        #: (installed by ``Network.set_tracer``).
        self.clock: Callable[[], float] | None = None

    def __bool__(self) -> bool:
        return True

    def wants(self, packet: IPv4Packet) -> bool:
        """Whether ``packet`` should be recorded at this hop."""
        return self.match is None or self.match(packet)

    def record(
        self,
        packet: IPv4Packet,
        hop: str,
        action: str,
        ecn_before: ECN,
        ecn_after: ECN,
        time: float | None = None,
    ) -> None:
        """Append one hop observation for ``packet``."""
        if len(self.events) >= EVENT_LIMIT:
            self.dropped += 1
            return
        if time is None:
            time = self.clock() if self.clock is not None else 0.0
        self.events.append(
            PathEvent(
                time=time,
                src=packet.src,
                dst=packet.dst,
                protocol=packet.protocol,
                ident=packet.ident,
                hop=hop,
                action=action,
                ecn_before=int(ecn_before),
                ecn_after=int(ecn_after),
            )
        )

    # ------------------------------------------------------------------
    # Reading the log
    # ------------------------------------------------------------------

    def dump(self, max_lines: int | None = None) -> str:
        """The whole trace as text, one event per line."""
        events = self.events if max_lines is None else self.events[:max_lines]
        lines = [event.describe() for event in events]
        omitted = len(self.events) - len(events) + self.dropped
        if omitted > 0:
            lines.append(f"... {omitted} more events not shown")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Filter expressions
# ----------------------------------------------------------------------
_PROTO_TERMS = {"udp": PROTO_UDP, "tcp": PROTO_TCP, "icmp": PROTO_ICMP}
_ECN_TERMS = {
    "not-ect": (ECN.NOT_ECT,),
    "ect": (ECN.ECT_0, ECN.ECT_1, ECN.CE),
    "ect0": (ECN.ECT_0,),
    "ect1": (ECN.ECT_1,),
    "ce": (ECN.CE,),
}


def _parse_addr_token(token: str) -> int:
    if token.isdigit():
        return int(token)
    from ..netsim.ipv4 import parse_addr
    from ..netsim.errors import AddressError

    try:
        return parse_addr(token)
    except AddressError as exc:
        raise FilterError(f"bad address {token!r}") from exc


def _parse_term(tokens: list[str], index: int) -> tuple[PacketFilter, int]:
    token = tokens[index]
    if token in _PROTO_TERMS:
        proto = _PROTO_TERMS[token]
        return (lambda p: p.protocol == proto), index + 1
    if token in _ECN_TERMS:
        codepoints = _ECN_TERMS[token]
        return (lambda p: p.ecn in codepoints), index + 1
    if token in ("src", "dst"):
        if index + 1 >= len(tokens):
            raise FilterError(f"{token!r} needs an address")
        addr = _parse_addr_token(tokens[index + 1])
        if token == "src":
            return (lambda p: p.src == addr), index + 2
        return (lambda p: p.dst == addr), index + 2
    raise FilterError(f"unknown filter term {token!r}")


def parse_filter(expression: str) -> PacketFilter:
    """Compile a tcpdump-flavoured expression into a packet predicate.

    Grammar (lowest to highest precedence)::

        expr     = conjunct ("or" conjunct)*
        conjunct = term ("and" term)*
        term     = "udp" | "tcp" | "icmp"
                 | "ect" | "ect0" | "ect1" | "ce" | "not-ect"
                 | ("src" | "dst") <dotted-quad-or-int>

    Parentheses are not supported; the two-level and/or precedence
    covers every filter the CLI needs (``udp and dst 10.3.0.7``).
    """
    tokens = expression.replace("(", " ").replace(")", " ").lower().split()
    if not tokens:
        raise FilterError("empty filter expression")
    disjuncts: list[list[PacketFilter]] = [[]]
    index = 0
    expect_term = True
    while index < len(tokens):
        token = tokens[index]
        if token == "or":
            if expect_term:
                raise FilterError("misplaced 'or'")
            disjuncts.append([])
            index += 1
            expect_term = True
        elif token == "and":
            if expect_term:
                raise FilterError("misplaced 'and'")
            index += 1
            expect_term = True
        else:
            term, index = _parse_term(tokens, index)
            disjuncts[-1].append(term)
            expect_term = False
    if expect_term:
        raise FilterError(f"dangling operator in {expression!r}")

    def predicate(packet: IPv4Packet) -> bool:
        return any(
            all(term(packet) for term in conjunct) for conjunct in disjuncts
        )

    return predicate
