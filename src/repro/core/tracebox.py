"""Tracebox-style middlebox interference detection.

The paper's §4.2 compares one field (the ECN bits) between the probe
sent and the header quoted in ICMP errors.  Detal et al.'s *tracebox*
(cited as [2]) generalises the idea: diff *every* recoverable header
field per hop to reveal any middlebox rewriting.  This module applies
that generalisation to our quotations — ECN, DSCP, the IP ident, and
the DF bit — which is what lets the DSCP-bleaching extension study
distinguish "cleared just the ECN field" (an ECN-specific policy) from
"zeroed the whole TOS byte" (legacy TOS-washing, the hypothesis the
paper raises for preferential drops).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..netsim.ecn import dscp_from_tos, ecn_from_tos
from ..netsim.host import Host
from ..scenario.parameters import ProbeParams
from .probes import Traceroute
from .traces import PathTrace

#: Field keys reported by the differ.
FIELD_ECN = "ecn"
FIELD_DSCP = "dscp"
FIELD_IDENT = "ident"


@dataclass(frozen=True)
class FieldChange:
    """One rewritten header field observed at one hop."""

    ttl: int
    responder: int
    field: str
    sent_value: int
    observed_value: int


@dataclass
class TraceboxResult:
    """Per-hop header diffs for one destination."""

    path: PathTrace
    sent_dscp: int
    sent_ecn: int
    changes: list[FieldChange] = field(default_factory=list)

    def changes_for(self, field_name: str) -> list[FieldChange]:
        return [c for c in self.changes if c.field == field_name]

    def classify_tos_interference(self) -> str:
        """Distinguish the two §4 hypotheses about TOS handling.

        * ``"ecn-specific"`` — the ECN bits were cleared while the
          DSCP survived: a deliberate ECN policy;
        * ``"tos-washing"`` — DSCP and ECN were both zeroed: legacy
          gear rewriting the whole TOS byte;
        * ``"dscp-only"`` — DSCP rewritten, ECN intact (QoS remarking);
        * ``"clean"`` — nothing touched.
        """
        ecn_changed = bool(self.changes_for(FIELD_ECN))
        dscp_changed = bool(self.changes_for(FIELD_DSCP))
        if ecn_changed and dscp_changed:
            return "tos-washing"
        if ecn_changed:
            return "ecn-specific"
        if dscp_changed:
            return "dscp-only"
        return "clean"


def diff_path(path: PathTrace, sent_dscp: int) -> TraceboxResult:
    """Diff quoted headers along an already-collected path."""
    result = TraceboxResult(path=path, sent_dscp=sent_dscp, sent_ecn=path.sent_ecn)
    for hop in path.hops:
        if hop.responder is None or hop.quoted_tos is None:
            continue
        quoted_ecn = int(ecn_from_tos(hop.quoted_tos))
        if quoted_ecn != path.sent_ecn:
            result.changes.append(
                FieldChange(
                    ttl=hop.ttl,
                    responder=hop.responder,
                    field=FIELD_ECN,
                    sent_value=path.sent_ecn,
                    observed_value=quoted_ecn,
                )
            )
        quoted_dscp = dscp_from_tos(hop.quoted_tos)
        if quoted_dscp != sent_dscp:
            result.changes.append(
                FieldChange(
                    ttl=hop.ttl,
                    responder=hop.responder,
                    field=FIELD_DSCP,
                    sent_value=sent_dscp,
                    observed_value=quoted_dscp,
                )
            )
    return result


def run_tracebox(
    host: Host,
    dst_addr: int,
    dscp: int = 0,
    params: ProbeParams | None = None,
) -> TraceboxResult:
    """Run an ECT(0) traceroute with the given DSCP and diff every quotation."""
    params = params if params is not None else ProbeParams()
    path = Traceroute(
        host,
        dst_addr,
        dscp=dscp,
        max_ttl=params.traceroute_max_ttl,
        attempts=params.traceroute_attempts,
        timeout=params.traceroute_timeout,
        silent_limit=params.traceroute_silent_limit,
    ).run()
    return diff_path(path, sent_dscp=dscp)
