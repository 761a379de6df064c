"""Data model for measurement traces.

A **trace** is one pass over every discovered server from one vantage
point, recording the four measurements of §3: UDP reachability without
and with ECT(0), and TCP/HTTP reachability without and with an
ECN-setup SYN.  The study comprises 210 traces; a :class:`TraceSet`
holds them together with enough metadata to drive every analysis in
§4, and serialises to JSON so studies can be archived and re-analysed
(the authors published their dataset the same way).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..ioutil import atomic_write_text
from ..protocols.quic.validation import QUIC_STATES

#: Marks a required field in :func:`_field`.
_MISSING = object()


@dataclass(slots=True)
class QUICProbeOutcome:
    """The QUIC ECN-validation measurement for one server in one trace.

    ``state`` is one of :data:`repro.protocols.quic.QUIC_STATES`; the
    counters are the raw material the classifier consumed, kept so
    re-analysis can recompute or refine the taxonomy offline.
    """

    state: str
    handshake_ok: bool = False
    handshake_attempts: int = 0
    packets_sent: int = 0
    packets_acked: int = 0
    ect0_echoed: int = 0
    ect1_echoed: int = 0
    ce_echoed: int = 0


@dataclass(slots=True)
class ProbeOutcome:
    """The four §3 measurements for one server in one trace."""

    server_addr: int
    #: NTP answered a request in a not-ECT marked UDP packet.
    udp_plain: bool = False
    #: NTP answered a request in an ECT(0) marked UDP packet.
    udp_ect: bool = False
    #: Attempts used (1..5; 5 with no response means unreachable).
    udp_plain_attempts: int = 0
    udp_ect_attempts: int = 0
    #: A complete HTTP response arrived over a plain TCP connection.
    tcp_plain: bool = False
    #: A complete HTTP response arrived when ECN was requested.
    tcp_ecn: bool = False
    #: The server answered the ECN-setup SYN with an ECN-setup SYN-ACK.
    ecn_negotiated: bool = False
    #: HTTP status of the plain fetch (None if no response).
    http_status: int | None = None
    #: QUIC ECN validation result (None when the probe family is off).
    quic: QUICProbeOutcome | None = None

    @property
    def udp_differential_plain_only(self) -> bool:
        """Reachable with not-ECT but not with ECT(0) (Figure 3a)."""
        return self.udp_plain and not self.udp_ect

    @property
    def udp_differential_ect_only(self) -> bool:
        """Reachable with ECT(0) but not with not-ECT (Figure 3b)."""
        return self.udp_ect and not self.udp_plain


@dataclass(slots=True)
class Trace:
    """One complete pass over all servers from one vantage."""

    trace_id: int
    vantage_key: str
    batch: int
    started_at: float
    outcomes: dict[int, ProbeOutcome] = field(default_factory=dict)

    def add(self, outcome: ProbeOutcome) -> None:
        self.outcomes[outcome.server_addr] = outcome

    def to_dict(self) -> dict:
        """The one dict form of a trace: an element of ``traces.json``'s
        ``traces`` list and of a shard result's."""
        return {
            "trace_id": self.trace_id,
            "vantage_key": self.vantage_key,
            "batch": self.batch,
            "started_at": self.started_at,
            "outcomes": [_outcome_to_row(o) for o in self.outcomes.values()],
        }

    @classmethod
    def from_dict(cls, raw, where: str = "") -> "Trace":
        """Inverse of :meth:`to_dict`; a malformed dict raises
        ``ValueError`` naming ``where`` plus the bad field."""
        trace = cls(
            trace_id=_field(raw, "trace_id", where, int),
            vantage_key=_field(raw, "vantage_key", where, str),
            batch=_field(raw, "batch", where, int),
            started_at=_field(raw, "started_at", where, float, int),
        )
        for position, row in enumerate(_field(raw, "outcomes", where, list)):
            _check_row(row, f"{where}outcomes[{position}]")
            trace.add(_outcome_from_row(row))
        return trace

    # ------------------------------------------------------------------
    # Per-trace aggregates (the quantities plotted per bar in Figs 2/5)
    # ------------------------------------------------------------------
    def count_udp_plain(self) -> int:
        """Servers reachable with not-ECT marked UDP."""
        return sum(1 for o in self.outcomes.values() if o.udp_plain)

    def count_udp_ect(self) -> int:
        """Servers reachable with ECT(0) marked UDP."""
        return sum(1 for o in self.outcomes.values() if o.udp_ect)

    def count_udp_both(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.udp_plain and o.udp_ect)

    def count_tcp_plain(self) -> int:
        """Servers responding to the plain HTTP request."""
        return sum(1 for o in self.outcomes.values() if o.tcp_plain)

    def count_ecn_negotiated(self) -> int:
        """Servers that returned an ECN-setup SYN-ACK."""
        return sum(1 for o in self.outcomes.values() if o.ecn_negotiated)

    def pct_ect_given_plain(self) -> float | None:
        """Figure 2a quantity: of not-ECT-reachable, % also ECT-reachable."""
        plain = self.count_udp_plain()
        if plain == 0:
            return None
        return 100.0 * self.count_udp_both() / plain

    def pct_plain_given_ect(self) -> float | None:
        """Figure 2b quantity: of ECT-reachable, % also not-ECT-reachable."""
        ect = self.count_udp_ect()
        if ect == 0:
            return None
        return 100.0 * self.count_udp_both() / ect


@dataclass
class TraceSet:
    """All traces of a study plus the probe-target list."""

    server_addrs: list[int]
    traces: list[Trace] = field(default_factory=list)
    description: str = ""

    def add(self, trace: Trace) -> None:
        self.traces.append(trace)

    def extend(self, traces: Iterable[Trace]) -> None:
        """Append many traces (shard-merge support for repro.runner)."""
        self.traces.extend(traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def by_vantage(self, vantage_key: str) -> list[Trace]:
        """All traces collected from one vantage, in collection order."""
        return [t for t in self.traces if t.vantage_key == vantage_key]

    def vantage_keys(self) -> list[str]:
        """Vantages present, in first-appearance order."""
        seen: list[str] = []
        for trace in self.traces:
            if trace.vantage_key not in seen:
                seen.append(trace.vantage_key)
        return seen

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "ecn-udp-traceset/1",
            "description": self.description,
            "server_addrs": self.server_addrs,
            "traces": [trace.to_dict() for trace in self.traces],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSet":
        """Inverse of :meth:`to_dict`; a malformed document raises
        ``ValueError`` naming the bad field."""
        if _field(data, "format", "", str) != "ecn-udp-traceset/1":
            raise ValueError(f"unknown trace-set format: {data['format']!r}")
        server_addrs = _field(data, "server_addrs", "", list)
        if not all(type(addr) is int for addr in server_addrs):
            raise ValueError("server_addrs: expected a list of integers")
        trace_set = cls(
            server_addrs=server_addrs,
            description=_field(data, "description", "", str, default=""),
        )
        for index, raw in enumerate(_field(data, "traces", "", list)):
            trace_set.add(Trace.from_dict(raw, f"traces[{index}]."))
        return trace_set

    def save(self, path: str | Path) -> None:
        """Write the trace set as JSON (atomically: a concurrent
        reader sees the old file or the new file, never a prefix)."""
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "TraceSet":
        """Read a trace set written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _field(raw, key: str, where: str, *kinds: type, default=_MISSING):
    """``raw[key]`` when its JSON type is one of ``kinds`` (a bool is
    not an int); ``ValueError`` naming ``where + key`` otherwise."""
    if type(raw) is not dict:
        raise ValueError(f"{where or 'document'}: expected an object")
    value = raw.get(key, default)
    if value is _MISSING:
        raise ValueError(f"{where}{key}: missing")
    if type(value) not in kinds:
        raise ValueError(f"{where}{key}: unexpected {type(value).__name__}")
    return value


#: Outcome-row columns: the base row, then what a QUIC measurement appends.
_ROW_FIELDS = tuple(
    "server_addr udp_plain udp_ect udp_plain_attempts udp_ect_attempts tcp_plain tcp_ecn "
    "ecn_negotiated http_status quic.state quic.handshake_ok quic.handshake_attempts "
    "quic.packets_sent quic.packets_acked quic.ect0_echoed quic.ect1_echoed quic.ce_echoed".split()
)
_BASE_ROW = _ROW_FIELDS.index("quic.state")


def _check_row(row, where: str) -> None:
    """``ValueError`` naming the column unless ``row`` is an outcome row
    :func:`_outcome_from_row` decodes faithfully."""
    if type(row) is not list or len(row) not in (_BASE_ROW, len(_ROW_FIELDS)):
        raise ValueError(
            f"{where}: expected {_BASE_ROW} or {len(_ROW_FIELDS)} integers"
        )
    for name, value in zip(_ROW_FIELDS, row):
        if type(value) is not int:
            raise ValueError(f"{where} {name}: unexpected {type(value).__name__}")
    if len(row) > _BASE_ROW and not 0 <= row[_BASE_ROW] < len(QUIC_STATES):
        raise ValueError(f"{where} quic.state: no state {row[_BASE_ROW]}")


def _outcome_to_row(outcome: ProbeOutcome) -> list:
    """Compact row encoding keeps 210x2500 outcomes manageable.

    The base row is nine elements; a QUIC measurement appends eight
    more.  Append-only: legacy archives (and the golden studies pinned
    in ``tests/data/``) decode unchanged, and QUIC-off studies encode
    byte-identically to pre-QUIC ones.
    """
    row = [
        outcome.server_addr,
        int(outcome.udp_plain),
        int(outcome.udp_ect),
        outcome.udp_plain_attempts,
        outcome.udp_ect_attempts,
        int(outcome.tcp_plain),
        int(outcome.tcp_ecn),
        int(outcome.ecn_negotiated),
        outcome.http_status if outcome.http_status is not None else -1,
    ]
    quic = outcome.quic
    if quic is not None:
        row.extend(
            [
                QUIC_STATES.index(quic.state),
                int(quic.handshake_ok),
                quic.handshake_attempts,
                quic.packets_sent,
                quic.packets_acked,
                quic.ect0_echoed,
                quic.ect1_echoed,
                quic.ce_echoed,
            ]
        )
    return row


def _outcome_from_row(row: list) -> ProbeOutcome:
    quic = None
    if len(row) > 9:
        quic = QUICProbeOutcome(
            state=QUIC_STATES[row[9]],
            handshake_ok=bool(row[10]),
            handshake_attempts=row[11],
            packets_sent=row[12],
            packets_acked=row[13],
            ect0_echoed=row[14],
            ect1_echoed=row[15],
            ce_echoed=row[16],
        )
    return ProbeOutcome(
        server_addr=row[0],
        udp_plain=bool(row[1]),
        udp_ect=bool(row[2]),
        udp_plain_attempts=row[3],
        udp_ect_attempts=row[4],
        tcp_plain=bool(row[5]),
        tcp_ecn=bool(row[6]),
        ecn_negotiated=bool(row[7]),
        http_status=row[8] if row[8] >= 0 else None,
        quic=quic,
    )


# ----------------------------------------------------------------------
# Traceroute observations (§4.2)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class HopObservation:
    """One hop of one traceroute.

    ``quoted_tos`` carries the full TOS byte from the ICMP quotation
    when available (DSCP analysis needs it); ``quoted_ecn`` is kept
    separately because it is the serialised, analysis-critical field.
    """

    ttl: int
    responder: int | None
    sent_ecn: int
    quoted_ecn: int | None
    rtt: float | None = None
    quoted_tos: int | None = None
    quoted_ident: int | None = None

    @property
    def responded(self) -> bool:
        return self.responder is not None

    @property
    def mark_preserved(self) -> bool | None:
        """Did the quoted header still carry the mark we sent?

        None when the hop did not respond (nothing to compare).
        """
        if self.quoted_ecn is None:
            return None
        return self.quoted_ecn == self.sent_ecn


@dataclass(slots=True)
class PathTrace:
    """One traceroute from a vantage to a server."""

    vantage_key: str
    dst_addr: int
    sent_ecn: int
    hops: list[HopObservation] = field(default_factory=list)
    reached_destination: bool = False

    def responding_hops(self) -> list[HopObservation]:
        return [hop for hop in self.hops if hop.responded]

    def first_strip_ttl(self) -> int | None:
        """TTL of the first hop whose quotation lost the mark."""
        for hop in self.hops:
            if hop.mark_preserved is False:
                return hop.ttl
        return None


@dataclass
class TracerouteCampaign:
    """All traceroutes of a study."""

    paths: list[PathTrace] = field(default_factory=list)

    def add(self, path: PathTrace) -> None:
        self.paths.append(path)

    def extend(self, paths: Iterable[PathTrace]) -> None:
        """Append many paths (shard-merge support for repro.runner)."""
        self.paths.extend(paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[PathTrace]:
        return iter(self.paths)

    def by_vantage(self, vantage_key: str) -> list[PathTrace]:
        return [p for p in self.paths if p.vantage_key == vantage_key]

    def to_dict(self) -> dict:
        return {
            "format": "ecn-udp-traceroutes/1",
            "paths": [
                {
                    "vantage_key": path.vantage_key,
                    "dst_addr": path.dst_addr,
                    "sent_ecn": path.sent_ecn,
                    "reached_destination": path.reached_destination,
                    "hops": [
                        [
                            hop.ttl,
                            hop.responder if hop.responder is not None else -1,
                            hop.sent_ecn,
                            hop.quoted_ecn if hop.quoted_ecn is not None else -1,
                        ]
                        for hop in path.hops
                    ],
                }
                for path in self.paths
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TracerouteCampaign":
        """Inverse of :meth:`to_dict`; a malformed document raises
        ``ValueError`` naming the bad field."""
        if _field(data, "format", "", str) != "ecn-udp-traceroutes/1":
            raise ValueError(f"unknown traceroute format: {data['format']!r}")
        campaign = cls()
        for index, raw in enumerate(_field(data, "paths", "", list)):
            where = f"paths[{index}]."
            path = PathTrace(
                vantage_key=_field(raw, "vantage_key", where, str),
                dst_addr=_field(raw, "dst_addr", where, int),
                sent_ecn=_field(raw, "sent_ecn", where, int),
                reached_destination=_field(raw, "reached_destination", where, bool),
            )
            for position, hop in enumerate(_field(raw, "hops", where, list)):
                if type(hop) is not list or len(hop) != 4 or not all(
                    type(value) is int for value in hop
                ):
                    raise ValueError(f"{where}hops[{position}]: expected 4 integers")
                ttl, responder, sent, quoted = hop
                path.hops.append(
                    HopObservation(
                        ttl=ttl,
                        responder=responder if responder >= 0 else None,
                        sent_ecn=sent,
                        quoted_ecn=quoted if quoted >= 0 else None,
                    )
                )
            campaign.add(path)
        return campaign

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "TracerouteCampaign":
        return cls.from_dict(json.loads(Path(path).read_text()))
