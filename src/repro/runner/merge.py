"""Deterministic reassembly of shard results.

Shard results cross the process boundary as plain dicts of lists and
scalars (a compact, version-tagged wire encoding — no pickled domain
objects, so worker and parent never disagree about class identity).
A trace travels in its one dict form (:meth:`Trace.to_dict`, the
element of ``traces.json``); a path travels in a wire form that keeps
the hop fields (`rtt`, `quoted_tos`, `quoted_ident`) the archival
JSON format drops.  The merge
functions reassemble them in the study's canonical order: traces
ascending by ``trace_id`` (the schedule's plan order), traceroutes by
vantage build order.  Because every epoch is a pure function of
``(params, epoch index)``, the merged study is bit-identical for any
worker count; ``tests/runner/test_equivalence.py`` enforces that
contract.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.traces import (
    HopObservation,
    PathTrace,
    Trace,
    TraceSet,
    TracerouteCampaign,
)

#: Wire-format tag carried by every shard result.
WIRE_FORMAT = "ecn-udp-shard/1"


class MergeError(ValueError):
    """A shard result could not be decoded or reassembled."""


# ----------------------------------------------------------------------
# Traceroute codec
# ----------------------------------------------------------------------
def encode_path(path: PathTrace) -> dict:
    """PathTrace -> wire dict, keeping the analysis-optional hop fields
    (rtt, quoted TOS/ident) the archival format deliberately drops."""
    return {
        "vantage_key": path.vantage_key,
        "dst_addr": path.dst_addr,
        "sent_ecn": path.sent_ecn,
        "reached_destination": path.reached_destination,
        "hops": [
            [
                hop.ttl,
                hop.responder,
                hop.sent_ecn,
                hop.quoted_ecn,
                hop.rtt,
                hop.quoted_tos,
                hop.quoted_ident,
            ]
            for hop in path.hops
        ],
    }


def decode_path(data: dict) -> PathTrace:
    """Wire dict -> PathTrace (inverse of :func:`encode_path`)."""
    path = PathTrace(
        vantage_key=data["vantage_key"],
        dst_addr=data["dst_addr"],
        sent_ecn=data["sent_ecn"],
        reached_destination=data["reached_destination"],
    )
    for ttl, responder, sent, quoted, rtt, tos, ident in data["hops"]:
        path.hops.append(
            HopObservation(
                ttl=ttl,
                responder=responder,
                sent_ecn=sent,
                quoted_ecn=quoted,
                rtt=rtt,
                quoted_tos=tos,
                quoted_ident=ident,
            )
        )
    return path


# ----------------------------------------------------------------------
# Reassembly
# ----------------------------------------------------------------------
def _check_format(result: dict) -> None:
    if result.get("format") != WIRE_FORMAT:
        raise MergeError(f"unknown shard wire format: {result.get('format')!r}")


def merge_traces(
    results: Iterable[dict],
    server_addrs: Sequence[int],
    description: str,
) -> TraceSet:
    """Reassemble trace-shard results into the study's TraceSet.

    The trace plan is ascending ``trace_id`` by construction, so a
    sort restores it no matter how shards raced.  Duplicate ids (a
    shard retried after a partial failure whose first result
    nevertheless arrived) collapse to a single copy — both are
    bit-identical by the epoch contract.
    """
    by_id: dict[int, Trace] = {}
    for result in results:
        _check_format(result)
        for raw in result.get("traces", ()):
            trace = Trace.from_dict(raw)
            by_id[trace.trace_id] = trace
    trace_set = TraceSet(server_addrs=list(server_addrs), description=description)
    trace_set.extend(by_id[trace_id] for trace_id in sorted(by_id))
    return trace_set


def merge_campaign(
    results: Iterable[dict],
    vantage_order: Sequence[str],
) -> TracerouteCampaign:
    """Reassemble traceroute-shard results in vantage build order."""
    by_vantage: dict[str, list[PathTrace]] = {}
    for result in results:
        _check_format(result)
        raw_paths = result.get("paths")
        if not raw_paths:
            continue
        paths = [decode_path(raw) for raw in raw_paths]
        by_vantage[paths[0].vantage_key] = paths
    campaign = TracerouteCampaign()
    for key in vantage_order:
        campaign.extend(by_vantage.get(key, ()))
    return campaign
