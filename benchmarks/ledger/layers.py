"""Per-layer self time, traced from outside the program.

The ledger times calls into each layer's public functions by swapping
a timing wrapper in at the attribute the program calls through — the
module global a caller looks up (``repro.core.measurement.probe_tcp``)
or the class attribute a method call resolves (``Network.send``) — and
swapping the original object back afterwards.  Nothing under ``src/``
changes, and with the wrappers removed the program runs exactly the
code it always runs.

**Self time** is a call's duration minus the wrapped calls nested
inside it, so the self times of every layer plus the root's own
remainder add up to the traced wall time.  Probe-level calls and
everything above them are also kept as spans (name, start, end,
parent); codec, forwarding and routing calls — over a million per
scale-0.1 study — are only aggregated into a count and a self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped attribute and the layer its self time is charged to."""

    layer: str
    #: ``"package.module"`` or ``"package.module:Class"``.
    owner: str
    attr: str
    #: Keep every call as a span (probe level and above).
    span: bool
    #: Runs inside measurement epochs, i.e. in shard worker processes
    #: when a study is sharded — the parent never sees those calls.
    epoch: bool


PROBES = {
    "udp": "probe_udp",
    "tcp": "probe_tcp",
    "quic": "probe_quic",
    "traceroute": "run_traceroute",
}

CODECS = {
    "tcp": "repro.tcp.segment:TCPSegment",
    "udp": "repro.netsim.udp:UDPDatagram",
    "ipv4": "repro.netsim.ipv4:IPv4Packet",
    "icmp": "repro.netsim.icmp:ICMPMessage",
    "ntp": "repro.protocols.ntp.packet:NTPPacket",
    "http_req": "repro.protocols.http.messages:HTTPRequest",
    "http_resp": "repro.protocols.http.messages:HTTPResponse",
    "quic": "repro.protocols.quic.packet:QUICPacket",
    "dns": "repro.protocols.dns.message:DNSMessage",
}

#: Analysis entry points, wrapped where ``Study`` looks them up.
ANALYSIS = (
    "analyze_campaign",
    "analyze_correlation",
    "analyze_geography",
    "analyze_quic_ecn",
    "analyze_reachability",
    "analyze_regional",
    "analyze_tcp_ecn",
    "full_report",
    "headline_intervals",
    "validate_study",
)

TARGETS: tuple[Target, ...] = (
    Target("scenario.build", "repro.scenario.internet:SyntheticInternet", "__init__", True, False),
    Target("scenario.begin_epoch", "repro.scenario.internet:SyntheticInternet", "begin_epoch", True, True),
    Target("discovery", "repro.core.discovery:PoolDiscovery", "run", True, False),
    *(
        Target(f"probes.{family}", "repro.core.measurement", name, True, True)
        for family, name in PROBES.items()
    ),
    Target("netsim.forward", "repro.netsim.network:Network", "send", False, True),
    Target("routing.path", "repro.netsim.routing:RoutingTable", "path", False, True),
    *(
        Target(f"codec.{proto}.{op}", owner, op, False, True)
        for proto, owner in CODECS.items()
        for op in ("encode", "decode")
    ),
    *(Target("analysis", "repro.study", name, True, False) for name in ANALYSIS),
    Target("analysis", "repro.core.analysis.differential:DifferentialAnalysis", "__init__", True, False),
    Target("archive.save", "repro.study:Study", "save", True, False),
    Target("runner.schedule", "repro.runner.scheduler:ShardScheduler", "run", True, False),
    Target("runner.merge", "repro.runner", "merge_traces", True, False),
    Target("runner.merge", "repro.runner", "merge_campaign", True, False),
)

#: Every layer a target can charge, in table order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: Name of the root span; its self time is the unattributed remainder.
ROOT = "rep"


def resolve(owner: str):
    """The module or class named by a :attr:`Target.owner`."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def targets_for(sharded: bool) -> tuple[Target, ...]:
    """The targets worth installing for one kind of run.

    A sharded study runs its epochs in forked workers, which would
    inherit the wrappers and pay for them without reporting anything
    back; only the parent-side layers are installed then.
    """
    return tuple(t for t in TARGETS if not (sharded and t.epoch))


class Tracer:
    """Installs timing wrappers and accumulates per-layer self time."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Per-call durations of span layers (for call percentiles).
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: ``[name, start, end, parent index or None]`` per span.
        self.spans: list[list] = []
        self._frames: list[list] = []
        self._open_spans: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, span: bool):
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        durations = self.durations[layer] if span else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            if span:
                index = len(spans)
                spans.append([layer, 0.0, 0.0, open_spans[-1] if open_spans else None])
                open_spans.append(index)
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[0]
                calls[layer] += 1
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end
                    durations.append(elapsed)

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block.

        The originals are put back in ``finally``, so afterwards each
        wrapped attribute is the very object it was before.
        """
        try:
            for target in targets:
                owner = resolve(target.owner)
                original = vars(owner)[target.attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(target.layer, original.__func__, target.span)
                    )
                else:
                    wrapped = self._wrap(target.layer, original, target.span)
                self._installed.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapped)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def run(self, fn):
        """Call ``fn()`` as the root span; returns ``(wall seconds, result)``."""
        root = self._wrap(ROOT, fn, True)
        before = len(self.durations[ROOT])
        result = root()
        return self.durations[ROOT][before], result

    @property
    def wall_s(self) -> float:
        return sum(self.durations.get(ROOT, ()))

    @property
    def unattributed_s(self) -> float:
        return self.self_s.get(ROOT, 0.0)

    def table(self) -> list[dict]:
        """Layer rows (self seconds, share of wall, calls), largest first."""
        wall = self.wall_s
        rows = [
            {
                "layer": layer,
                "self_s": self.self_s[layer],
                "share": self.self_s[layer] / wall if wall else 0.0,
                "calls": self.calls[layer],
            }
            for layer in LAYERS
            if self.calls.get(layer)
        ]
        rows.sort(key=lambda row: -row["self_s"])
        rows.append(
            {
                "layer": "unattributed",
                "self_s": self.unattributed_s,
                "share": self.unattributed_s / wall if wall else 0.0,
                "calls": self.calls.get(ROOT, 0),
            }
        )
        return rows

    def trace_document(self, workload: str) -> dict:
        """Spans relative to the first root start, for ``<workload>.trace.json``."""
        origin = min((span[1] for span in self.spans if span[0] == ROOT), default=0.0)
        return {
            "workload": workload,
            "wall_s": self.wall_s,
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                for name, start, end, parent in self.spans
            ],
        }

    def metrics(self) -> dict[str, float]:
        """Every layer's self time and call count, plus probe percentiles."""
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            values[f"{layer}.calls"] = self.calls.get(layer, 0)
        for family in PROBES:
            durations = self.durations.get(f"probes.{family}", [])
            values[f"probes.{family}.call_p50_ms"] = percentile(durations, 50) * 1000
            values[f"probes.{family}.call_p99_ms"] = percentile(durations, 99) * 1000
        wall = self.wall_s
        named = sum(self.self_s.get(layer, 0.0) for layer in LAYERS)
        values["trace.reconciled_ratio"] = named / wall if wall else 0.0
        return values


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[pct - 1])


@contextlib.contextmanager
def runner_telemetry(sink: list):
    """Collect shard timing from sharded studies run inside the block.

    Wraps ``repro.runner.run_study_parallel`` — which ``Study.run``
    imports at call time — so that a call without telemetry gets a
    fresh ``RunTelemetry`` with ``observe=False``: per-shard wall times
    and retry counts, without worker-side metric registries.  Study
    outputs are unchanged: the study never sees the object.
    """
    import repro.runner as runner
    from repro.obs import RunTelemetry

    original = vars(runner)["run_study_parallel"]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if kwargs.get("telemetry") is None:
            kwargs["telemetry"] = RunTelemetry()
            kwargs["observe"] = False
        sink.append(kwargs["telemetry"])
        return original(*args, **kwargs)

    runner.run_study_parallel = wrapper
    try:
        yield sink
    finally:
        runner.run_study_parallel = original
