"""Fault events and plans: the immutable schedule of impairments.

A :class:`FaultEvent` names one impairment pinned to one measurement
epoch: *which* piece of the world misbehaves (a link, a router, a
server), *when* within the epoch (a simulation-time window), and *how
hard* (a magnitude whose meaning depends on the kind).  A
:class:`FaultPlan` is a sorted tuple of events plus the provenance
needed to audit or regenerate it.

Plans are plain hashable values.  That single property carries the
whole determinism story: a plan can be shipped to a worker process
inside a :class:`~repro.runner.ShardJob`, used as part of the worker's
world-cache key, and compared for equality — and two runs given equal
plans install byte-for-byte identical impairments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .profiles import ChaosProfile, resolve_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenario.internet import SyntheticInternet

#: Fault kinds.  ``target`` semantics per kind:
#:
#: - LINK_FLAP / DELAY_SPIKE — a directed link ``"srcRouter->dstRouter"``
#: - ROUTER_BLACKHOLE — a router id (epoch-scoped; forces a reroute)
#: - BLEACH_ON / BLEACH_OFF — a router id (policy toggled in-window)
#: - NTP_BROWNOUT — a server address (int, the service goes dark)
LINK_FLAP = "link_flap"
DELAY_SPIKE = "delay_spike"
ROUTER_BLACKHOLE = "router_blackhole"
BLEACH_ON = "bleach_on"
BLEACH_OFF = "bleach_off"
NTP_BROWNOUT = "ntp_brownout"

FAULT_KINDS = (
    LINK_FLAP,
    DELAY_SPIKE,
    ROUTER_BLACKHOLE,
    BLEACH_ON,
    BLEACH_OFF,
    NTP_BROWNOUT,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled impairment.

    ``start`` is the offset in simulated seconds from the beginning of
    ``epoch``; ``duration`` is the window length.  ``magnitude`` means:
    loss probability during a :data:`LINK_FLAP`, added one-way delay in
    seconds for a :data:`DELAY_SPIKE`, strip probability for
    :data:`BLEACH_ON`; other kinds ignore it.  Router blackholes are
    epoch-scoped regardless of window (a reroute is a control-plane
    event, not a per-packet one), so their window is informational.
    """

    kind: str
    epoch: int
    target: str | int
    start: float = 0.0
    duration: float = float("inf")
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0: {self.epoch!r}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError(
                f"bad fault window: start={self.start!r} duration={self.duration!r}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "epoch": self.epoch,
            "target": self.target,
            "start": self.start,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FaultEvent":
        return cls(
            kind=document["kind"],
            epoch=int(document["epoch"]),
            target=document["target"],
            start=float(document["start"]),
            duration=float(document["duration"]),
            magnitude=float(document.get("magnitude", 0.0)),
        )


def _sort_key(event: FaultEvent) -> tuple:
    return (event.epoch, event.kind, str(event.target), event.start)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, hashable schedule of fault events.

    ``profile`` and ``chaos_seed`` record provenance (a hand-built plan
    may use ``profile="custom"``); equality and hashing cover the full
    event tuple, so equal plans injected anywhere yield equal worlds.
    """

    events: tuple[FaultEvent, ...] = ()
    profile: str = "custom"
    chaos_seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=_sort_key))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def events_for_epoch(self, epoch: int) -> tuple[FaultEvent, ...]:
        """Events scheduled for one epoch, in canonical order."""
        index = self.__dict__.get("_by_epoch")
        if index is None:
            index = {}
            for event in self.events:
                index.setdefault(event.epoch, []).append(event)
            index = {key: tuple(value) for key, value in index.items()}
            object.__setattr__(self, "_by_epoch", index)
        return index.get(epoch, ())

    @property
    def epochs_touched(self) -> int:
        return len({event.epoch for event in self.events})

    def summary(self) -> dict:
        """Audit document: what this plan schedules, by kind."""
        by_kind: dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        return {
            "profile": self.profile,
            "chaos_seed": self.chaos_seed,
            "events": len(self.events),
            "epochs_touched": self.epochs_touched,
            "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
        }

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "chaos_seed": self.chaos_seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FaultPlan":
        return cls(
            events=tuple(
                FaultEvent.from_dict(entry) for entry in document.get("events", ())
            ),
            profile=document.get("profile", "custom"),
            chaos_seed=int(document.get("chaos_seed", 0)),
        )


# ----------------------------------------------------------------------
# Plan generation
# ----------------------------------------------------------------------
def _plan_stream(scenario_seed: int, chaos_seed: int, profile_name: str) -> int:
    """Mix the seeds so nearby (scenario, chaos) pairs decorrelate."""
    mixed = (scenario_seed * 0x9E3779B97F4A7C15 + chaos_seed * 1_000_003) & (
        (1 << 64) - 1
    )
    for char in profile_name:
        mixed = (mixed * 31 + ord(char)) & ((1 << 64) - 1)
    mixed ^= mixed >> 29
    mixed = (mixed * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    return mixed ^ (mixed >> 32)


def _fault_inventory(world: "SyntheticInternet") -> dict:
    """Sorted target inventories; sorted so sampling is reproducible."""
    links = sorted(f"{link.src}->{link.dst}" for link in world.topology.all_links())
    # Never blackhole the measurement apparatus: every router in a
    # vantage AS (the chains are linear, so losing the border cuts the
    # vantage off entirely) and the DNS infrastructure AS.
    protected: set[str] = set()
    for info in world.vantage_as.values():
        protected.update(info.router_ids)
    protected.update(world._infra_as.router_ids)
    routers = sorted(
        router_id
        for router_id in world.topology.routers
        if router_id not in protected
    )
    bleached = sorted(world.ground_truth.bleacher_routers)
    unbleached = sorted(set(routers) - set(bleached))
    servers = sorted(server.addr for server in world.servers)
    return {
        "links": links,
        "routers": routers,
        "bleached": bleached,
        "unbleached": unbleached,
        "servers": servers,
    }


def _window(rng: random.Random, profile: ChaosProfile) -> tuple[float, float]:
    """Sample an event window (start offset, duration) in epoch time."""
    if rng.random() < profile.whole_epoch_fraction:
        return 0.0, float("inf")
    start = rng.uniform(0.0, profile.window_start_max)
    low, high = profile.duration_range
    return start, rng.uniform(low, high)


def generate_fault_plan(
    world: "SyntheticInternet",
    profile: str | ChaosProfile = "default",
    chaos_seed: int = 0,
) -> FaultPlan:
    """Sample a :class:`FaultPlan` for one world.

    The plan is a pure function of ``(world params, profile,
    chaos_seed)``: target inventories are walked in sorted order and
    all randomness comes from a private stream, so the parent process
    and any worker that rebuilds the same world would generate the
    same plan — although in practice only the parent generates, and
    workers receive the finished value.

    Vantage access routers and the DNS host's router are never
    blackholed: chaos must degrade measurements, not disconnect the
    measurement apparatus itself (the paper's vantages stayed up; its
    *paths* did not).
    """
    spec = resolve_profile(profile)
    rng = random.Random(
        _plan_stream(world.params.seed, chaos_seed, spec.name)
    )
    inventory = _fault_inventory(world)
    epochs = world.params.schedule.total_traces + len(world.vantage_hosts)
    events: list[FaultEvent] = []

    def emit(kind: str, targets: list, rate: float, magnitude: float) -> None:
        if not targets:
            return
        for epoch in range(epochs):
            if rng.random() >= rate:
                continue
            start, duration = _window(rng, spec)
            events.append(
                FaultEvent(
                    kind=kind,
                    epoch=epoch,
                    target=rng.choice(targets),
                    start=start,
                    duration=duration,
                    magnitude=magnitude,
                )
            )

    emit(LINK_FLAP, inventory["links"], spec.link_flap_rate, spec.flap_loss)
    emit(DELAY_SPIKE, inventory["links"], spec.delay_spike_rate, spec.spike_delay)
    emit(ROUTER_BLACKHOLE, inventory["routers"], spec.blackhole_rate, 0.0)
    emit(BLEACH_ON, inventory["unbleached"], spec.bleach_on_rate, 1.0)
    emit(BLEACH_OFF, inventory["bleached"], spec.bleach_off_rate, 0.0)
    emit(NTP_BROWNOUT, inventory["servers"], spec.brownout_rate, 0.0)

    return FaultPlan(
        events=tuple(events), profile=spec.name, chaos_seed=chaos_seed
    )


def merge_plans(plans: Iterable[FaultPlan]) -> FaultPlan:
    """Union several plans into one (profiles compose additively)."""
    merged: list[FaultEvent] = []
    names: list[str] = []
    seed = 0
    for plan in plans:
        merged.extend(plan.events)
        names.append(plan.profile)
        seed = seed or plan.chaos_seed
    return FaultPlan(
        events=tuple(merged), profile="+".join(names) or "custom", chaos_seed=seed
    )
