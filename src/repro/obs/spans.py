"""The span-tree and Chrome-trace views of the event log.

Spans answer *when and where inside the campaign* things happened: the
study decomposes into shards, shards into measurement epochs (one trace
or one traceroute sweep), epochs into per-server probes, probes into
protocol phases.  :meth:`repro.obs.EventLog.span` writes each span as
an open and a close record into its shard's stream; :func:`span_tree`
folds the streams back into the span list ``spans.json`` archives.

Every span carries two clocks: **simulated time** (``sim_start`` /
``sim_end``), read from the event engine's clock that
:meth:`SyntheticInternet.begin_epoch` resets per epoch — deterministic,
identical for any ``workers`` value — and **wall-clock time**
(``wall_ms``), a fact about one run that
:func:`~repro.obs.canonical_events` strips before trees are compared.
Span ids are ``s<shard>.<n>`` for any ``workers`` value, because every
execution of a shard walks its epochs in the same order
(``tests/obs/test_span_equivalence.py``).

:func:`export_chrome_trace` writes the list in Chrome Trace Event
Format, loadable in Perfetto or ``chrome://tracing``: shards map to
processes, the simulated clock is the timeline, and wall-clock
attribution rides in ``args``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

#: Span detail levels, coarse to fine.
DETAIL_EPOCH = "epoch"  # study / shard / trace / sweep
DETAIL_PROBE = "probe"  # ... plus per-server probes and protocol phases

#: Identifier of the synthetic study root span.
ROOT_SPAN_ID = "root"

#: Record kinds :meth:`~repro.obs.EventLog.span` writes.
SPAN_OPEN = "span-open"
SPAN_CLOSE = "span-close"

#: Envelope fields of an event record; the rest is its payload.
_ENVELOPE = ("seq", "kind", "level", "shard", "wall")


def span_id(shard_id: int, seq: int) -> str:
    """Deterministic span identifier: ``s<shard>.<seq>``."""
    return f"s{shard_id}.{seq}"


def span_tree(streams: Mapping[int, Iterable]) -> list[dict]:
    """The study's span list, root first, from per-shard record streams.

    Shards are laid out in id order, so the result is a pure function
    of the streams, never of which process recorded them or when.
    """
    spans: list[dict] = []
    for shard_id in sorted(streams):
        spans.extend(_shard_spans(shard_id, streams[shard_id]))
    wall_ms = sum(s["wall_ms"] for s in spans if s["kind"] == "shard")
    return [_enclosing(ROOT_SPAN_ID, None, "study", "study", spans, wall_ms)] + spans


def _enclosing(ident: str, parent, kind: str, name: str, spans: list, wall_ms: float) -> dict:
    """A synthesized span covering the simulated interval of ``spans``."""
    return {
        "id": ident,
        "parent": parent,
        "kind": kind,
        "name": name,
        "sim_start": min((s["sim_start"] for s in spans), default=0.0),
        "sim_end": max((s["sim_end"] for s in spans), default=0.0),
        "wall_ms": round(wall_ms, 3),
    }


def _shard_spans(shard_id: int, stream: Iterable) -> list[dict]:
    """One shard's spans (shard span first) from its record stream.

    Events at info level and above become point events of the
    innermost open span; events recorded between spans (fault
    installation runs inside ``begin_epoch``, before the epoch span
    opens) land in the next span that opens — the epoch they impair.
    An event's subtype rides in the log under a field named after its
    kind (``fault=link_flap``: ``kind`` is the envelope's); on the
    timeline it becomes the point event's ``kind`` attribute.

    The shard span (``s<shard>.0``) is synthesized from its children's
    interval: the stream carries no record of its own.
    """
    spans: list[dict] = []
    stack: list[dict] = []
    pending: list[dict] = []
    for sim_time, record in stream:
        kind = record["kind"]
        if kind == SPAN_OPEN:
            span: dict = {
                "id": record["id"],
                "parent": record["parent"],
                "kind": record["span"],
                "name": record["name"],
                "sim_start": sim_time,
                "sim_end": sim_time,
                "wall_ms": 0.0,
            }
            if record.get("attrs"):
                span["attrs"] = dict(record["attrs"])
            if pending:
                span["events"], pending = pending, []
            spans.append(span)
            stack.append(span)
        elif kind == SPAN_CLOSE:
            span = stack.pop()
            span["sim_end"] = sim_time
            span["wall_ms"] = record["wall_ms"]
        elif record["level"] != "debug":
            event: dict = {"name": kind, "sim_time": sim_time}
            attrs = {
                ("kind" if key == kind else key): value
                for key, value in record.items()
                if key not in _ENVELOPE
            }
            if attrs:
                event["attrs"] = attrs
            if stack:
                stack[-1].setdefault("events", []).append(event)
            else:
                pending.append(event)
    if not spans:
        return spans
    wall_ms = sum(s["wall_ms"] for s in spans)
    shard = _enclosing(
        span_id(shard_id, 0), ROOT_SPAN_ID, "shard", f"shard-{shard_id}", spans, wall_ms
    )
    shard["attrs"] = {"shard_id": shard_id}
    for span in spans:
        span["wall_ms"] = round(span["wall_ms"], 3)
    return [shard] + spans


def span_children(spans: Iterable[Mapping]) -> dict[str | None, list[dict]]:
    """Index a span list by parent id (document order preserved)."""
    children: dict[str | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent"), []).append(dict(span))
    return children


# ----------------------------------------------------------------------
# Chrome Trace Event Format export
# ----------------------------------------------------------------------
def chrome_trace_events(spans: Iterable[Mapping]) -> list[dict]:
    """Span list -> Chrome Trace Event Format event list.

    Shards become processes (``pid`` = shard id + 1, the study root is
    pid 0), the simulated clock is the timeline (µs), and point events
    become instant events.  Wall-clock attribution rides in ``args``.
    """
    events: list[dict] = []
    named_pids: set[int] = set()
    for span in spans:
        if span["kind"] == "study":
            pid = 0
        else:
            shard = int(span["id"][1:].split(".", 1)[0])
            pid = shard + 1
        if pid not in named_pids:
            named_pids.add(pid)
            label = "study" if pid == 0 else f"shard {pid - 1}"
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": label},
                }
            )
        args = dict(span.get("attrs", {}))
        args["wall_ms"] = span.get("wall_ms", 0.0)
        ts = span["sim_start"] * 1e6
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": ts,
                "dur": max((span["sim_end"] - span["sim_start"]) * 1e6, 0.0),
                "name": span["name"],
                "cat": span["kind"],
                "args": args,
            }
        )
        for event in span.get("events", ()):
            events.append(
                {
                    "ph": "i",
                    "s": "p",
                    "pid": pid,
                    "tid": 0,
                    "ts": event["sim_time"] * 1e6,
                    "name": event["name"],
                    "cat": "event",
                    "args": dict(event.get("attrs", {})),
                }
            )
    return events


def export_chrome_trace(spans: Iterable[Mapping], path) -> dict:
    """Write ``trace.json`` (Chrome Trace Event Format); returns it.

    Load the file in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing`` to browse the campaign timeline.
    """
    document = {
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "generator": "repro.obs.spans"},
        "traceEvents": chrome_trace_events(spans),
    }
    Path(path).write_text(json.dumps(document, indent=1))
    return document
