"""Prometheus text exposition (format 0.0.4) for the metrics layer.

Two halves, deliberately kept in one module so they cannot drift:

* :func:`render_prometheus` turns a metric snapshot (the
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` document, plus
  optional extra gauges from the serve queue/scheduler) into the text
  exposition format scrapers understand — ``# HELP``/``# TYPE``
  comments, counter/gauge samples, and cumulative
  ``_bucket{le="..."}``/``_sum``/``_count`` triples for histograms.
* :func:`validate_exposition` is the in-repo format checker the tests
  and the serve-smoke CI lane run against live output: sample syntax,
  one TYPE per family, histogram bucket monotonicity and the
  ``+Inf``-equals-``_count`` invariant.

Determinism: rendering walks the snapshot's already-sorted keys and
formats numbers with :func:`repr`-stable rules, so the same snapshot
always renders to identical bytes — the exposition of a merged
sharded study equals the sequential one's.
"""

from __future__ import annotations

import re
from typing import Mapping

from .metrics import _SUM_SCALE

#: Content type a conforming scraper expects for this format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix namespacing every exported metric family.
METRIC_PREFIX = "ecnudp"

_SANITISE = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*\Z"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"\Z'
)

_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


class ExpositionError(ValueError):
    """The text is not valid Prometheus exposition format 0.0.4."""


def metric_name(name: str) -> str:
    """Sanitise a dotted registry name into a legal metric name."""
    return f"{METRIC_PREFIX}_{_SANITISE.sub('_', name)}"


def _format_value(value: float) -> str:
    """Stable sample-value formatting: ints bare, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    """``le`` label values: trim trailing zeros, keep exactness."""
    text = repr(float(bound))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def render_prometheus(
    snapshot: Mapping,
    extra_gauges: Mapping[str, float] | None = None,
) -> str:
    """Render a metric snapshot in text exposition format 0.0.4.

    ``extra_gauges`` carries instantaneous values that live outside
    the registry (queue depth, running studies, pool liveness); they
    render as gauges under the same prefix.  Output always ends with a
    newline, as the format requires of non-empty expositions.
    """
    lines: list[str] = []

    def family(name: str, kind: str, help_text: str) -> str:
        full = metric_name(name)
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        return full

    for name, value in snapshot.get("counters", {}).items():
        full = family(name, "counter", f"Deterministic counter {name}")
        lines.append(f"{full} {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        full = family(name, "gauge", f"High-water gauge {name}")
        lines.append(f"{full} {_format_value(value)}")
    if extra_gauges:
        for name in sorted(extra_gauges):
            full = family(name, "gauge", f"Instantaneous gauge {name}")
            lines.append(f"{full} {_format_value(extra_gauges[name])}")
    for name, hist in snapshot.get("histograms", {}).items():
        full = family(name, "histogram", f"Fixed-bucket histogram {name}")
        cumulative = 0
        for bound, bucket in zip(hist.get("bounds", ()), hist.get("buckets", ())):
            cumulative += bucket
            lines.append(
                f'{full}_bucket{{le="{_format_bound(bound)}"}} {cumulative}'
            )
        count = hist.get("count", 0)
        lines.append(f'{full}_bucket{{le="+Inf"}} {count}')
        lines.append(
            f"{full}_sum {_format_value(hist.get('sum_fp', 0) / _SUM_SCALE)}"
        )
        lines.append(f"{full}_count {count}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Validator
# ----------------------------------------------------------------------
def _parse_sample(line: str, lineno: int) -> tuple[str, dict[str, str], float]:
    match = _SAMPLE_RE.match(line)
    if not match:
        raise ExpositionError(f"line {lineno}: not a valid sample: {line!r}")
    labels: dict[str, str] = {}
    raw = match.group("labels")
    if raw is not None and raw.strip():
        for part in raw.split(","):
            lmatch = _LABEL_RE.match(part.strip())
            if not lmatch:
                raise ExpositionError(
                    f"line {lineno}: malformed label {part.strip()!r}"
                )
            labels[lmatch.group("name")] = lmatch.group("value")
    value_text = match.group("value")
    try:
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        elif value_text == "NaN":
            value = float("nan")
        else:
            value = float(value_text)
    except ValueError:
        raise ExpositionError(
            f"line {lineno}: unparseable sample value {value_text!r}"
        ) from None
    return match.group("name"), labels, value


def _family_of(sample_name: str, types: Mapping[str, str]) -> str:
    """The metric family a sample belongs to, honouring suffixes."""
    for suffix in ("_bucket", "_sum", "_count"):
        base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
        if base and types.get(base) in ("histogram", "summary"):
            return base
    return sample_name


def validate_exposition(text: str) -> dict[str, str]:
    """Check ``text`` against exposition format 0.0.4.

    Returns ``{family: type}`` for every declared family.  Raises
    :class:`ExpositionError` on: malformed sample/label syntax,
    duplicate or post-sample TYPE lines, unknown types, samples typed
    as histograms missing their ``le`` label, non-monotonic cumulative
    buckets, or a ``+Inf`` bucket disagreeing with ``_count``.
    """
    types: dict[str, str] = {}
    sampled: set[str] = set()
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # Free-form comments are legal; only HELP/TYPE are parsed.
                continue
            if parts[1] == "TYPE":
                if len(parts) < 4:
                    raise ExpositionError(f"line {lineno}: incomplete TYPE line")
                name, kind = parts[2], parts[3].strip()
                if kind not in _VALID_TYPES:
                    raise ExpositionError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if name in types:
                    raise ExpositionError(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                if name in sampled:
                    raise ExpositionError(
                        f"line {lineno}: TYPE for {name!r} after its samples"
                    )
                types[name] = kind
            continue
        name, labels, value = _parse_sample(line, lineno)
        family = _family_of(name, types)
        sampled.add(family)
        if types.get(family) == "histogram":
            if name.endswith("_bucket"):
                if "le" not in labels:
                    raise ExpositionError(
                        f"line {lineno}: histogram bucket without le label"
                    )
                le = labels["le"]
                try:
                    bound = float("inf") if le == "+Inf" else float(le)
                except ValueError:
                    raise ExpositionError(
                        f"line {lineno}: unparseable bucket bound {le!r}"
                    ) from None
                buckets.setdefault(family, []).append((bound, value))
            elif name.endswith("_count"):
                counts[family] = value
    for family, series in buckets.items():
        previous = None
        for bound, value in series:
            if previous is not None and value < previous:
                raise ExpositionError(
                    f"histogram {family!r}: cumulative buckets decrease"
                )
            previous = value
        if not series or series[-1][0] != float("inf"):
            raise ExpositionError(f"histogram {family!r}: missing +Inf bucket")
        if family in counts and series[-1][1] != counts[family]:
            raise ExpositionError(
                f"histogram {family!r}: +Inf bucket != _count "
                f"({series[-1][1]} vs {counts[family]})"
            )
    return types


def render_histogram_rows(snapshot: Mapping) -> list[list[str]]:
    """Histogram summary rows for text reports and dashboards."""
    rows: list[list[str]] = []
    for name, hist in snapshot.get("histograms", {}).items():
        count = hist.get("count", 0)
        mean = (hist.get("sum_fp", 0) / _SUM_SCALE / count) if count else 0.0
        lo = hist.get("min")
        hi = hist.get("max")
        rows.append(
            [
                name,
                str(count),
                f"{mean:.4f}",
                "-" if lo is None else f"{lo:.4f}",
                "-" if hi is None else f"{hi:.4f}",
            ]
        )
    return rows
