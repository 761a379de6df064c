"""repro.faults — deterministic fault injection for the simulator.

The paper's credibility question — does an ECT(0) mark survive a
*hostile* Internet? — needs the hostility to be first-class: paths
that were static within an epoch must be able to flap, reroute, and
change policy mid-measurement, and the runner's recovery machinery
must be drivable under test.  This package provides both, under one
determinism contract:

**every fault is part of the epoch's pure-function inputs.**

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent`
impairments, generated once from ``(world inventory, profile,
chaos seed)`` by :func:`generate_fault_plan` and thereafter a plain
value: the same plan applied to the same world produces bit-identical
measurements whether the study runs sequentially or sharded across
worker processes, because
:meth:`~repro.scenario.internet.SyntheticInternet.begin_epoch`
installs exactly the events scheduled for that epoch (and reverts the
previous epoch's) before the epoch RNG streams are seeded.  Nothing
is wall-clock driven; "time" in every window is simulation time.

Layout:

- :mod:`~repro.faults.events` — :class:`FaultEvent` / :class:`FaultPlan`
  values and the plan generator
- :mod:`~repro.faults.profiles` — named chaos intensity presets
  (``light`` / ``default`` / ``heavy`` / ``reroute``)
- :mod:`~repro.faults.windows` — simulation-time-windowed impairment
  wrappers (link flaps, delay spikes, windowed middlebox policies)
- :mod:`~repro.faults.injector` — applies a plan at epoch boundaries
  and reverts it, surfacing ``faults.*`` metrics

Process-level chaos for the runner (worker kill / hang injection)
lives with the worker code it targets: see
:class:`repro.runner.FaultSpec`, which gained ``FAULT_HANG`` alongside
the original raise/exit kinds.
"""

from __future__ import annotations

from .events import (
    BLEACH_OFF,
    BLEACH_ON,
    DELAY_SPIKE,
    FAULT_KINDS,
    LINK_FLAP,
    NTP_BROWNOUT,
    ROUTER_BLACKHOLE,
    FaultEvent,
    FaultPlan,
    generate_fault_plan,
)
from .injector import FaultInjector
from .profiles import PROFILES, ChaosProfile, resolve_profile
from .windows import (
    FaultWindow,
    LinkFault,
    SuppressedPolicy,
    WindowedPolicy,
)

__all__ = [
    "BLEACH_OFF",
    "BLEACH_ON",
    "ChaosProfile",
    "DELAY_SPIKE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultWindow",
    "LINK_FLAP",
    "LinkFault",
    "NTP_BROWNOUT",
    "PROFILES",
    "ROUTER_BLACKHOLE",
    "SuppressedPolicy",
    "WindowedPolicy",
    "generate_fault_plan",
    "resolve_profile",
]
