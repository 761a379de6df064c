"""The event log: the one observability record stream.

Every narrated fact about a run is a record in an :class:`EventLog` —
shard lifecycle from the runner, admissions from the serve layer,
injected chaos from the fault injector, epoch publishes and SLO
breaches from campaigns — and so is the span timeline, whose open and
close records (:meth:`EventLog.span`) ride in the same stream.
``events.jsonl`` (:meth:`~EventLog.events`), ``spans.json`` /
``trace.json`` (:meth:`~EventLog.spans`), crash flight dumps
(:meth:`~EventLog.dump`) and ``GET /events`` (:meth:`~EventLog.since`)
are views of it.

* **Deterministic where it must be.**  A log built with a
  ``context_map`` (a shard execution's log maps its ``(kind, vantage,
  batch)`` to its shard id) resolves :meth:`~EventLog.enter_context`
  to shard ids and appends what is recorded there to that shard's
  **stream**, minting per-shard event ``seq`` numbers and
  ``s<shard>.<n>`` span ids.  A study's log absorbs one stream per
  shard, whichever process ran it, so the views are byte-identical
  for any ``workers`` value.  Rate limiting is a per-``(shard, kind)`` cap,
  a pure function of the emission sequence; wall-clock stamps live in
  the ``wall`` / ``wall_ms`` fields :func:`canonical_events` strips.
* **Cheap when off.**  A disabled log is ``None``; every recording
  site is truthiness-gated (``if log: log.emit(...)``).
* **Bounded where it is live.**  Every record also lands in a ring:
  old records fall off the front while the stream position keeps
  rising — the since-cursor ``GET /events`` serves.

Correlation fields (``run_id``, ``tenant``, ...) given to the
constructor or :meth:`~EventLog.bind` are folded into every event.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Mapping

from .spans import DETAIL_EPOCH, DETAIL_PROBE, SPAN_CLOSE, SPAN_OPEN, span_id, span_tree

#: Document format tag for events.jsonl exports.
EVENTS_FORMAT = "ecn-udp-events/1"

#: Document format tag for crash flight dumps.
FLIGHT_FORMAT = "ecn-udp-flight/1"

#: Severity levels, least to most severe.
LEVELS = ("debug", "info", "warning", "alert")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}

#: Default ring capacity: enough for a full chaos-heavy study's shard
#: lifecycle plus fault events, small enough to stay cheap to merge.
DEFAULT_EVENT_CAPACITY = 4096

#: Default per-kind emission cap (the deterministic rate limit): after
#: this many events of one kind, further ones are counted, not stored.
DEFAULT_KIND_LIMIT = 512

#: Records a flight dump carries: the causal tail, not the stream.
FLIGHT_TAIL = 512

#: Execution-context kinds (match the runner's shard kinds).
CTX_TRACES = "traces"
CTX_TRACEROUTES = "traceroutes"

#: Fields whose values depend on the wall clock, stripped from the
#: canonical (determinism-checked) form.
_WALL_FIELDS = ("wall", "wall_ms")


def level_rank(level: str) -> int:
    """Numeric severity of ``level``; raises on unknown names."""
    try:
        return _LEVEL_RANK[level]
    except KeyError:
        known = ", ".join(LEVELS)
        raise ValueError(f"unknown event level {level!r}; one of: {known}") from None


class EventLog:
    """A bounded, leveled, deterministically rate-limited record stream."""

    __slots__ = (
        "capacity",
        "kind_limit",
        "detail",
        "_min_rank",
        "_context",
        "_ring",
        "_pos",
        "_shard",
        "_context_map",
        "_seqs",
        "_span_seqs",
        "_streams",
        "_stack",
        "_clock",
        "_kind_counts",
        "_dropped",
        "_lock",
        "_stamp_wall",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        min_level: str = "debug",
        kind_limit: int = DEFAULT_KIND_LIMIT,
        stamp_wall: bool = True,
        context_map: Mapping[tuple[str, str, int], int] | None = None,
        detail: str | None = None,
        **context,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0: {capacity!r}")
        if kind_limit <= 0:
            raise ValueError(f"kind_limit must be > 0: {kind_limit!r}")
        if detail not in (None, DETAIL_EPOCH, DETAIL_PROBE):
            raise ValueError(f"unknown span detail level: {detail!r}")
        self.capacity = capacity
        self.kind_limit = kind_limit
        #: Span detail the measurement records at (``None``: no study).
        self.detail = detail
        self._min_rank = level_rank(min_level)
        self._context = {k: v for k, v in context.items() if v is not None}
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._pos = 0  # global stream position (the ring/tail cursor)
        self._shard: int | None = None
        self._context_map = dict(context_map) if context_map else None
        #: Per-shard event seqs and span seqs.
        self._seqs: dict[int, int] = {}
        self._span_seqs: dict[int, int] = {}
        #: shard -> its ``(sim_time, record)`` stream: the study archive.
        self._streams: dict[int, list[tuple[float, dict]]] = {}
        #: Open span-open records of the current context, innermost last.
        self._stack: list[dict] = []
        self._clock: Callable[[], float] = lambda: 0.0
        self._kind_counts: dict[tuple[int | None, str], int] = {}
        self._dropped: dict[str, int] = {}
        self._lock = threading.Lock()
        #: Study and worker logs set this False: their records must be
        #: a pure function of the shard, and the wall stamp is not.
        self._stamp_wall = stamp_wall

    def __bool__(self) -> bool:
        return True

    def bind(self, **context) -> None:
        """Fold more correlation fields into every future event."""
        with self._lock:
            self._context.update(
                {k: v for k, v in context.items() if v is not None}
            )

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock stream records are stamped with."""
        self._clock = clock

    def enter_context(self, kind: str, vantage_key: str, batch: int = 0) -> None:
        """Attribute subsequent records to the shard owning this context.

        Requires every span of the previous context to be closed
        (epochs never interleave).  A no-op without a ``context_map``
        (parent/serve/campaign logs have no shard structure); a shard
        execution's map holds its own shard only.
        """
        if self._stack:
            raise RuntimeError(
                "cannot switch span context with open spans: "
                + " > ".join(record["name"] for record in self._stack)
            )
        if self._context_map is None:
            return
        try:
            shard = self._context_map[(kind, vantage_key, batch)]
        except KeyError:
            raise ValueError(
                f"no shard owns event context ({kind!r}, {vantage_key!r}, {batch!r})"
            ) from None
        self._enter_shard(shard)

    def _enter_shard(self, shard: int) -> None:
        self._shard = shard
        self._streams.setdefault(shard, [])

    def _next_span_id(self, shard: int) -> str:
        # Seq 0 of every shard is its shard span, which the span view
        # synthesizes; recorded spans count from 1.
        seq = self._span_seqs.get(shard, 0) + 1
        self._span_seqs[shard] = seq
        return span_id(shard, seq)

    def _append(self, record: dict, shard: int | None) -> None:
        """Add one record to the ring (and its shard's stream); locked."""
        self._pos += 1
        self._ring.append(record)
        if shard is not None:
            self._streams[shard].append((self._clock(), record))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, level: str = "info", /, **fields) -> dict | None:
        """Record one event; returns it, or ``None`` if filtered.

        ``kind`` is the event's stable machine name (``shard-retry``,
        ``serve-submit``, ``fault``, ...); ``fields`` are its payload.
        Payload fields never override the envelope (``seq``, ``kind``,
        ``level``) or bound context — the envelope wins.
        """
        rank = level_rank(level)
        if rank < self._min_rank:
            return None
        with self._lock:
            shard = self._shard
            counter_key = (shard, kind)
            seen = self._kind_counts.get(counter_key, 0) + 1
            self._kind_counts[counter_key] = seen
            if seen > self.kind_limit:
                self._dropped[kind] = self._dropped.get(kind, 0) + 1
                return None
            event = dict(fields)
            event.update(self._context)
            if shard is not None:
                event["shard"] = shard
                seq = self._seqs.get(shard, 0)
                self._seqs[shard] = seq + 1
            else:
                seq = self._pos
            event["seq"] = seq
            event["kind"] = kind
            event["level"] = level
            if self._stamp_wall:
                event["wall"] = time.time()
            self._append(event, shard)
            return event

    @contextmanager
    def span(self, kind: str, name: str, **attrs):
        """Record a child span of the innermost open span (or the shard).

        Writes a ``span-open`` record on entry and a ``span-close``
        record (carrying the span's wall time) on exit.  Without a
        shard context the span belongs to shard 0.
        """
        if self._shard is None:
            self._enter_shard(0)
        shard = self._shard
        opened = {
            "kind": SPAN_OPEN,
            "id": self._next_span_id(shard),
            "parent": self._stack[-1]["id"] if self._stack else span_id(shard, 0),
            "span": kind,
            "name": name,
            "shard": shard,
        }
        if attrs:
            opened["attrs"] = attrs
        with self._lock:
            self._append(opened, shard)
        self._stack.append(opened)
        started = perf_counter()
        try:
            yield
        finally:
            wall_ms = (perf_counter() - started) * 1000.0
            self._stack.pop()
            closed = {
                "kind": SPAN_CLOSE,
                "id": opened["id"],
                "name": name,
                "shard": shard,
                "wall_ms": wall_ms,
            }
            with self._lock:
                self._append(closed, shard)

    def annotate(self, **attrs) -> None:
        """Merge attributes into the innermost open span."""
        if self._stack:
            self._stack[-1].setdefault("attrs", {}).update(attrs)

    def absorb(self, shard: int, stream: Iterable) -> None:
        """Adopt a shard stream recorded elsewhere (a worker's).

        A shard delivered twice (gang-recovery races) keeps its first
        stream — either copy is identical by the determinism contract.
        """
        self._streams.setdefault(shard, list(stream))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The next global stream position (the live since-cursor).

        For logs without a context map this equals the ``seq`` the
        next event will carry, so clients can resume from their last
        seen ``seq + 1``.
        """
        return self._pos

    def since(self, cursor: int, limit: int | None = None) -> list[dict]:
        """Buffered records from stream position ``cursor``, oldest first.

        The since-cursor read behind ``GET /events``: a client replays
        from its last seen ``seq + 1``.  Records that already fell off
        the ring are simply gone — the ring is a tail, not a journal.
        """
        with self._lock:
            start = max(0, cursor - (self._pos - len(self._ring)))
            stop = None if limit is None else start + limit
            window = list(islice(self._ring, start, stop))
        return [dict(event) for event in window]

    def tail(self, limit: int) -> list[dict]:
        """The most recent ``limit`` records, oldest first."""
        return self.since(self._pos - limit) if limit > 0 else []

    def dropped(self) -> dict[str, int]:
        """Per-kind counts of rate-limited (dropped) events."""
        with self._lock:
            return dict(self._dropped)

    def stream(self, shard: int) -> list[tuple[float, dict]]:
        """One shard's record stream (the shard wire payload)."""
        return list(self._streams.get(shard, ()))

    def events(self) -> list[dict]:
        """The study's events: every shard stream's events, by ``(shard, seq)``."""
        return [
            dict(record)
            for shard in sorted(self._streams)
            for _, record in self._streams[shard]
            if record["kind"] not in (SPAN_OPEN, SPAN_CLOSE)
        ]

    def spans(self) -> list[dict]:
        """The study's span list, root first (:func:`~repro.obs.spans.span_tree`)."""
        return span_tree(self._streams)

    def dump(
        self, directory: str | Path, reason: str, label: str = "parent", **context
    ) -> Path:
        """Write the stream's tail to ``flight-<label>.json``; returns it.

        The crash black box: reason, label, pid, and the last
        :data:`FLIGHT_TAIL` records oldest-first.  Never raises — a
        failing flight dump must not mask the failure being recorded;
        on write errors the intended path is returned anyway.
        """
        directory = Path(directory)
        path = directory / f"flight-{label}.json"
        document = {
            "format": FLIGHT_FORMAT,
            "label": label,
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "capacity": FLIGHT_TAIL,
            "events_recorded": self._pos,
            "events": self.tail(FLIGHT_TAIL),
        }
        dropped = self.dropped()
        if dropped:
            document["dropped"] = dropped
        if context:
            document["context"] = context
        try:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(document, indent=1, default=repr))
        except (OSError, ValueError):  # pragma: no cover - disk-full / perms edge
            pass
        return path

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._kind_counts.clear()
            self._dropped.clear()
            self._seqs.clear()
            self._span_seqs.clear()
            self._streams.clear()
            self._stack.clear()
            self._shard = None
            self._pos = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventLog({len(self._ring)} records, next_seq={self._pos})"


# ----------------------------------------------------------------------
# Canonical form, serialisation, loading
# ----------------------------------------------------------------------
def canonical_events(events: Iterable[Mapping]) -> list[dict]:
    """The determinism-checked form: wall-clock stripped, key-sorted.

    This is what equivalence tests compare and what ``events.jsonl``
    archives, so a study's export is byte-identical for any worker
    count.  Span lists (which carry no ``seq``) keep their
    order, so the same projection compares span trees.
    """
    canonical = []
    for event in events:
        entry = {
            key: event[key] for key in sorted(event) if key not in _WALL_FIELDS
        }
        canonical.append(entry)
    canonical.sort(key=lambda e: (e.get("shard", -1), e.get("seq", 0)))
    return canonical


def render_events_jsonl(events: Iterable[Mapping]) -> str:
    """Serialise events as JSONL (one compact JSON object per line)."""
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def parse_events_jsonl(text: str) -> list[dict]:
    """Parse a JSONL event stream; raises ValueError on any bad line."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"garbled event at line {lineno}: {exc}") from None
        if not isinstance(event, dict):
            kind = type(event).__name__
            raise ValueError(f"event at line {lineno} is not an object: {kind}")
        events.append(event)
    return events
