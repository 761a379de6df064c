"""§4.2 / Figure 4: where ECT marks are stripped in the network.

Given a traceroute campaign, classifies every responding hop:

* **pass** — the quoted ECN field equals what we sent (ECT(0));
* **strip point** — the first hop on a path whose quotation came back
  not-ECT (the bleacher sits at or just before this hop);
* **downstream** — hops after a strip point, which also quote not-ECT
  ("runs of red" in Figure 4).

From this it derives the paper's §4.2 statistics: total hops measured,
hops passing the mark, strip locations (by responder address),
sometimes-strippers, AS coverage, and the fraction of strip locations
at AS boundaries (59.1 % in the paper, inferred through a noisy
IP→AS mapping exactly as the paper cautions).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Protocol, cast

from ...asmap.boundaries import classify_hop
from ...asmap.mapping import UNKNOWN_ASN
from ..traces import PathTrace, TracerouteCampaign

PASS = "pass"
STRIP = "strip"
DOWNSTREAM = "downstream"


class ASLookup(Protocol):
    """Anything that maps an address to one fixed ASN (ASMap, NoisyASMap)."""

    def lookup(self, addr: int) -> int:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class ClassifiedHop:
    """One responding hop with its §4.2 classification."""

    vantage_key: str
    dst_addr: int
    ttl: int
    responder: int
    status: str  # PASS | STRIP | DOWNSTREAM
    asn: int
    at_as_boundary: bool
    boundary_determinate: bool


@dataclass
class PathAnalysis:
    """All §4.2 statistics for a campaign."""

    hops: list[ClassifiedHop]
    paths_total: int
    paths_with_strip: int

    # ------------------------------------------------------------------
    # Hop-level counts (the 155439 / 154421 / 1143 numbers)
    # ------------------------------------------------------------------
    @property
    def hops_measured(self) -> int:
        return len(self.hops)

    @property
    def hops_passing(self) -> int:
        return sum(1 for hop in self.hops if hop.status == PASS)

    @property
    def strip_events(self) -> int:
        """Hop observations at which a strip was first seen."""
        return sum(1 for hop in self.hops if hop.status == STRIP)

    @property
    def pct_hops_passing(self) -> float:
        """The abstract's '~98 % of network hops pass ECT(0)'."""
        if not self.hops:
            return 0.0
        return 100.0 * self.hops_passing / self.hops_measured

    # ------------------------------------------------------------------
    # Location-level counts (unique responders)
    # ------------------------------------------------------------------
    def strip_locations(self) -> set[int]:
        """Responder addresses observed as strip points."""
        return {hop.responder for hop in self.hops if hop.status == STRIP}

    def sometimes_strip_locations(self) -> set[int]:
        """Responders that strip on some paths but pass on others.

        The paper's '125 hops only sometimes strip the ECN mark'.
        """
        passing = {hop.responder for hop in self.hops if hop.status == PASS}
        return self.strip_locations() & passing

    def ases_observed(self) -> set[int]:
        """Distinct (known) ASNs among responding hops."""
        return {hop.asn for hop in self.hops if hop.asn != UNKNOWN_ASN}

    # ------------------------------------------------------------------
    # Boundary analysis (the 59.1 % statistic)
    # ------------------------------------------------------------------
    def boundary_strip_fraction(self) -> tuple[float, int, int]:
        """Fraction of determinate strip events at AS boundaries.

        Returns ``(fraction, boundary_events, determinate_events)``.
        """
        boundary = 0
        determinate = 0
        for hop in self.hops:
            if hop.status != STRIP or not hop.boundary_determinate:
                continue
            determinate += 1
            if hop.at_as_boundary:
                boundary += 1
        fraction = boundary / determinate if determinate else 0.0
        return fraction, boundary, determinate


def classify_path(path: PathTrace, as_map: ASLookup) -> list[ClassifiedHop]:
    """Classify the responding hops of one traceroute."""
    responding = path.responding_hops()
    asns = [as_map.lookup(hop.responder) for hop in responding]
    classified: list[ClassifiedHop] = []
    stripped = False
    for index, hop in enumerate(responding):
        if hop.mark_preserved:
            status = PASS
            # A pass after a strip means the "strip" was transient
            # upstream behaviour (flaky bleacher); later hops that
            # still show the mark really did pass it.
            if stripped:
                stripped = False
        elif not stripped:
            status = STRIP
            stripped = True
        else:
            status = DOWNSTREAM
        verdict = classify_hop(asns, index)
        classified.append(
            ClassifiedHop(
                vantage_key=path.vantage_key,
                dst_addr=path.dst_addr,
                ttl=hop.ttl,
                responder=hop.responder,  # type: ignore[arg-type]
                status=status,
                asn=asns[index],
                at_as_boundary=verdict.is_boundary,
                boundary_determinate=verdict.determinate,
            )
        )
    return classified


def analyze_campaign(campaign: TracerouteCampaign, as_map: ASLookup) -> PathAnalysis:
    """Run the §4.2 analysis over a whole traceroute campaign."""
    hops: list[ClassifiedHop] = []
    paths_with_strip = 0
    # A campaign asks about the same few responders thousands of times;
    # answers are fixed per address, so one pass looks each up once.
    cached = cast(ASLookup, SimpleNamespace(lookup=functools.cache(as_map.lookup)))
    for path in campaign:
        classified = classify_path(path, cached)
        hops.extend(classified)
        if any(hop.status == STRIP for hop in classified):
            paths_with_strip += 1
    return PathAnalysis(
        hops=hops,
        paths_total=len(campaign),
        paths_with_strip=paths_with_strip,
    )
