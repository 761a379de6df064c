"""Calibrated synthetic-Internet scenarios (the substitution substrate)."""

from .internet import ASInfo, GroundTruth, ServerInfo, SyntheticInternet
from .parameters import (
    MiddleboxParams,
    ProbeParams,
    ScenarioParams,
    ServerParams,
    TopologyParams,
    TraceScheduleParams,
    default_params,
    scaled_params,
)
from .timeline import (
    TIMELINES,
    EpochDrift,
    Timeline,
    TimelineError,
    apply_drift,
    drifted_params,
    timeline_by_name,
)
from .vantages import VANTAGES, VantageSpec, ec2_vantages

__all__ = [
    "ASInfo",
    "EpochDrift",
    "GroundTruth",
    "MiddleboxParams",
    "ProbeParams",
    "ScenarioParams",
    "ServerInfo",
    "ServerParams",
    "SyntheticInternet",
    "TIMELINES",
    "Timeline",
    "TimelineError",
    "TopologyParams",
    "TraceScheduleParams",
    "VANTAGES",
    "VantageSpec",
    "apply_drift",
    "default_params",
    "drifted_params",
    "ec2_vantages",
    "scaled_params",
    "timeline_by_name",
]
