"""Reproduction of McQuistin & Perkins, "Is Explicit Congestion
Notification usable with UDP?" (IMC 2015).

The package is organised bottom-up:

* :mod:`repro.netsim` — packet-level Internet simulator (the
  substitution for the live Internet the paper measured);
* :mod:`repro.tcp` — TCP with RFC 3168 ECN negotiation;
* :mod:`repro.protocols` — NTP, DNS and HTTP over the simulator;
* :mod:`repro.geo`, :mod:`repro.asmap` — geolocation and IP→AS mapping;
* :mod:`repro.scenario` — the calibrated synthetic Internet;
* :mod:`repro.core` — the paper's measurement application and every
  analysis (one module per table/figure);
* :mod:`repro.stats`, :mod:`repro.reporting` — statistics and output.

Quick start::

    from repro import Study

    study = Study.run(scale=0.1, seed=7)
    print(study.reachability.avg_pct_ect_given_plain)  # paper: 98.97

See README.md for the full tour, DESIGN.md for the system inventory,
and EXPERIMENTS.md for paper-versus-reproduced numbers.
"""

from .core.discovery import PoolDiscovery
from .core.measurement import MeasurementApplication, trace_plan
from .core.probes import (
    Traceroute,
    probe_tcp,
    probe_tcp_ecn_usability,
    probe_udp,
    run_traceroute,
)
from .core.tracebox import run_tracebox
from .core.traces import ProbeOutcome, Trace, TraceSet, TracerouteCampaign
from .netsim.ecn import ECN
from .scenario.internet import SyntheticInternet
from .scenario.parameters import ScenarioParams, default_params, scaled_params
from .scenario.vantages import VANTAGES
from .spec import StudySpec
from .study import Study

__version__ = "1.0.0"

__all__ = [
    "ECN",
    "MeasurementApplication",
    "PoolDiscovery",
    "ProbeOutcome",
    "ScenarioParams",
    "Study",
    "StudySpec",
    "SyntheticInternet",
    "Trace",
    "TraceSet",
    "Traceroute",
    "TracerouteCampaign",
    "VANTAGES",
    "__version__",
    "default_params",
    "probe_tcp",
    "probe_tcp_ecn_usability",
    "probe_udp",
    "run_tracebox",
    "run_traceroute",
    "scaled_params",
    "trace_plan",
]
