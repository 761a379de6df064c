"""The paper's measurement system: discovery, probes, traces, analysis."""

from .discovery import DiscoveredServer, DiscoveryReport, PoolDiscovery
from .measurement import MeasurementApplication, PlannedTrace, trace_plan
from .probes import (
    ECNUsabilityResult,
    Traceroute,
    probe_tcp,
    probe_tcp_ecn_usability,
    probe_udp,
    run_traceroute,
)
from .tracebox import FieldChange, TraceboxResult, diff_path, run_tracebox
from .traces import (
    HopObservation,
    PathTrace,
    ProbeOutcome,
    Trace,
    TraceSet,
    TracerouteCampaign,
)

__all__ = [
    "DiscoveredServer",
    "DiscoveryReport",
    "ECNUsabilityResult",
    "FieldChange",
    "HopObservation",
    "MeasurementApplication",
    "PathTrace",
    "PlannedTrace",
    "PoolDiscovery",
    "ProbeOutcome",
    "Trace",
    "TraceSet",
    "TraceboxResult",
    "Traceroute",
    "TracerouteCampaign",
    "diff_path",
    "probe_tcp",
    "probe_tcp_ecn_usability",
    "probe_udp",
    "run_tracebox",
    "run_traceroute",
    "trace_plan",
]
