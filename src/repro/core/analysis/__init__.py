"""Analyses reproducing every table and figure of the paper.

=====================  ==========================================
Module                 Paper artefact
=====================  ==========================================
``geographic``         Table 1, Figure 1
``reachability``       §4.1 scalars, Figure 2a/2b
``differential``       Figure 3a/3b
``pathanalysis``       §4.2 statistics, Figure 4
``tcp_ecn``            §4.3, Figure 5, Figure 6
``correlation``        §4.4, Table 2
``quic_ecn``           (extension) RFC 9000 §13.4 vs raw UDP
=====================  ==========================================
"""

from .correlation import CorrelationRow, CorrelationTable, analyze_correlation
from .differential import (
    DifferentialAnalysis,
    ServerDifferential,
    transient_vs_persistent,
)
from .geographic import GeographicDistribution, GeoPoint, analyze_geography
from .pathanalysis import (
    DOWNSTREAM,
    PASS,
    STRIP,
    ClassifiedHop,
    PathAnalysis,
    analyze_campaign,
    classify_path,
)
from .quic_ecn import QUICECNSummary, QUICStateRow, analyze_quic_ecn
from .reachability import (
    ReachabilitySummary,
    TraceReachability,
    analyze_reachability,
    trace_reachability,
)
from .uncertainty import HeadlineIntervals, headline_intervals
from .validation import (
    InferenceQuality,
    validate_blocked_server_inference,
    validate_oddball_inference,
    validate_strip_location_inference,
    validate_study,
)
from .tcp_ecn import (
    HISTORICAL_STUDIES,
    HistoricalStudy,
    MEASUREMENT_YEAR,
    TCPECNSummary,
    TraceTCPReachability,
    analyze_tcp_ecn,
    ecn_deployment_series,
    fit_deployment_trend,
    trace_tcp_reachability,
)

__all__ = [
    "ClassifiedHop",
    "CorrelationRow",
    "CorrelationTable",
    "DOWNSTREAM",
    "DifferentialAnalysis",
    "GeoPoint",
    "GeographicDistribution",
    "HISTORICAL_STUDIES",
    "HeadlineIntervals",
    "HistoricalStudy",
    "InferenceQuality",
    "MEASUREMENT_YEAR",
    "PASS",
    "PathAnalysis",
    "QUICECNSummary",
    "QUICStateRow",
    "ReachabilitySummary",
    "STRIP",
    "ServerDifferential",
    "TCPECNSummary",
    "TraceReachability",
    "TraceTCPReachability",
    "analyze_campaign",
    "analyze_correlation",
    "analyze_geography",
    "analyze_quic_ecn",
    "analyze_reachability",
    "analyze_tcp_ecn",
    "classify_path",
    "ecn_deployment_series",
    "fit_deployment_trend",
    "headline_intervals",
    "trace_reachability",
    "trace_tcp_reachability",
    "transient_vs_persistent",
    "validate_blocked_server_inference",
    "validate_oddball_inference",
    "validate_strip_location_inference",
    "validate_study",
]
