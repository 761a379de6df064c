"""Deterministic process-local metrics: counters and gauges.

The simulator's hot paths (link delivery, router forwarding, scheduler
dispatch) are instrumented with *truthiness-gated* call sites::

    if metrics:
        metrics.incr("router.forwarded")

so a disabled registry — ``None`` — costs exactly one predicate per
call site.  A real
:class:`MetricsRegistry` is always truthy.

Determinism is the design constraint that shapes everything else:

* counters are plain integer sums, so merging shard snapshots is
  commutative and associative — the merged value is bit-identical
  regardless of shard completion order;
* gauges are **high-water marks** merged with ``max``, the only gauge
  semantics that stays order-independent across shards;
* histograms use **fixed bucket bounds** declared at the observation
  site, integer per-bucket counts, and a fixed-point integer sum
  (micro-units), so merging is pure integer addition — commutative,
  associative, and immune to float accumulation order;
* snapshots and merges walk keys in sorted order, so serialised output
  (JSON, reports) is stable byte for byte.

No wall-clock, no RNG, no I/O: a registry observing a measurement
epoch records a pure function of ``(params, epoch index)``, which is
what lets ``tests/obs/test_metrics_equivalence.py`` demand that a
``workers=4`` run's merged counters equal the sequential run's.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

#: Default bucket bounds (seconds of sim-time) for probe RTT
#: histograms.  Spans the calibrated path latencies: a same-continent
#: probe completes in tens of milliseconds, a retried five-transmission
#: UDP probe against a blackholed server takes multiple seconds.
RTT_BOUNDS: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)

#: Default bucket bounds (wall-clock seconds) for runner/serve
#: durations — queue wait and shard wall-time.
DURATION_BOUNDS: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0, 300.0)

#: Fixed-point scale for histogram sums: one micro-unit.  Sums are
#: accumulated and merged as integers so the merged value cannot
#: depend on shard completion order the way float addition would.
_SUM_SCALE = 1_000_000


class _Histogram:
    """One fixed-bucket histogram: integer state only (plus min/max)."""

    __slots__ = ("bounds", "buckets", "count", "sum_fp", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # One bucket per bound (le semantics) plus the overflow bucket.
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum_fp = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum_fp += round(value * _SUM_SCALE)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum_fp": self.sum_fp,
            "min": self.min,
            "max": self.max,
        }


def histogram_sum(snapshot_entry: Mapping) -> float:
    """The float sum of one snapshot histogram entry."""
    return snapshot_entry.get("sum_fp", 0) / _SUM_SCALE


class MetricsRegistry:
    """A process-local registry of named counters, gauges, histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Gauges (high-water marks)
    # ------------------------------------------------------------------
    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it is a new high."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = value

    # ------------------------------------------------------------------
    # Histograms (fixed buckets, integer state)
    # ------------------------------------------------------------------
    def observe(
        self, name: str, value: float, bounds: Sequence[float] = RTT_BOUNDS
    ) -> None:
        """Record ``value`` in histogram ``name``.

        ``bounds`` fixes the bucket upper bounds (``le`` semantics, an
        implicit overflow bucket past the last bound) on first use; the
        call site owns the choice, and every observation site for one
        name must agree — mixed bounds would make the shard merge
        ill-defined, so :func:`merge_snapshots` raises on mismatch.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = _Histogram(tuple(bounds))
        hist.observe(value)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-safe, key-sorted copy of the current state.

        The ``histograms`` key appears only when at least one histogram
        exists: legacy archives (and every consumer written before
        histograms) see the exact two-key document they always did.
        """
        snap = {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
        }
        if self._histograms:
            snap["histograms"] = {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            }
        return snap

    def clear(self) -> None:
        """Reset every counter, gauge, and histogram."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )


def empty_snapshot() -> dict:
    """The snapshot of a registry nothing ever touched."""
    return {"counters": {}, "gauges": {}}


def _merge_histogram(merged: dict, entry: Mapping, name: str) -> None:
    if list(entry.get("bounds", ())) != merged["bounds"]:
        raise ValueError(
            f"histogram {name!r} bucket bounds differ across shards: "
            f"{merged['bounds']} vs {list(entry.get('bounds', ()))}"
        )
    merged["buckets"] = [
        a + b for a, b in zip(merged["buckets"], entry.get("buckets", ()))
    ]
    merged["count"] += entry.get("count", 0)
    merged["sum_fp"] += entry.get("sum_fp", 0)
    for field, pick in (("min", min), ("max", max)):
        value = entry.get(field)
        if value is not None:
            current = merged[field]
            merged[field] = value if current is None else pick(current, value)


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Fold metric snapshots into one, deterministically.

    Counters sum; gauges take the max; histogram buckets, counts and
    fixed-point sums sum while min/max fold commutatively.  Input order
    cannot influence the result (integer addition, ``min`` and ``max``
    are commutative), and the merged dict is key-sorted, so any
    permutation of the same snapshot set serialises to identical
    bytes.  Mismatched bucket bounds for the same histogram name raise
    ``ValueError`` — silently mixing them would corrupt the merge.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            current = gauges.get(name)
            if current is None or value > current:
                gauges[name] = value
        for name, entry in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(entry.get("bounds", ())),
                    "buckets": list(entry.get("buckets", ())),
                    "count": entry.get("count", 0),
                    "sum_fp": entry.get("sum_fp", 0),
                    "min": entry.get("min"),
                    "max": entry.get("max"),
                }
            else:
                _merge_histogram(merged, entry, name)
    result = {
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
    }
    if histograms:
        result["histograms"] = {
            name: histograms[name] for name in sorted(histograms)
        }
    return result


#: Protocol-number -> short name, for per-protocol host counters.
_PROTO_NAMES = {1: "icmp", 6: "tcp", 17: "udp"}


def proto_name(protocol: int) -> str:
    """Counter-friendly name for an IP protocol number."""
    return _PROTO_NAMES.get(protocol, str(protocol))
