"""Methodology validation: measurement inferences vs ground truth.

The paper *infers* middlebox behaviour from reachability and
traceroute observations; because our substrate is a simulator, the
deployment is known exactly, so the quality of those inferences can be
quantified — precision and recall of each §4 inference rule.  This is
an extension beyond the paper (which had no ground truth), and it is
what makes the calibrated scenario trustworthy: the methodology, run
honestly, recovers what was deployed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...scenario.internet import GroundTruth, SyntheticInternet
from ..traces import TraceSet, TracerouteCampaign
from .differential import DifferentialAnalysis
from .pathanalysis import analyze_campaign


@dataclass(frozen=True)
class InferenceQuality:
    """Precision/recall of one inference against ground truth."""

    name: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        found = self.true_positives + self.false_positives
        return self.true_positives / found if found else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def _score(name: str, inferred: set, actual: set) -> InferenceQuality:
    return InferenceQuality(
        name=name,
        true_positives=len(inferred & actual),
        false_positives=len(inferred - actual),
        false_negatives=len(actual - inferred),
    )


def validate_blocked_server_inference(
    trace_set: TraceSet,
    truth: GroundTruth,
) -> InferenceQuality:
    """§4.1's rule: servers with >50 % differential reachability from
    every vantage are behind ECT-dropping firewalls."""
    analysis = DifferentialAnalysis(trace_set, "plain-only")
    inferred = analysis.servers_above_everywhere(0.5)
    actual = truth.udp_ect_blocked | truth.any_ect_blocked
    return _score("blocked-servers", inferred, actual)


def validate_oddball_inference(
    trace_set: TraceSet,
    truth: GroundTruth,
) -> InferenceQuality:
    """Figure 3b's rule: ect-only differential spikes mark servers
    that drop not-ECT UDP (globally or from some sources)."""
    analysis = DifferentialAnalysis(trace_set, "ect-only")
    inferred = analysis.servers_above_somewhere(0.5)
    actual = truth.not_ect_blocked | truth.phoenix
    return _score("not-ect-droppers", inferred, actual)


def validate_strip_location_inference(
    world: SyntheticInternet,
    campaign: TracerouteCampaign,
) -> InferenceQuality:
    """§4.2's rule: the first hop quoting a cleared ECN field hosts
    the bleacher.

    Scored at AS granularity because flaky bleachers legitimately
    smear hop-level attribution downstream within their AS (see the
    path-analysis tests); the paper's own AS-boundary statistic is
    computed at the same granularity.
    """
    analysis = analyze_campaign(campaign, world.as_map)
    inferred_asns = {
        world.as_map.lookup(addr) for addr in analysis.strip_locations()
    }
    actual_asns = {
        world.topology.routers[router_id].asn
        for router_id in world.ground_truth.bleacher_routers
    }
    return _score("strip-ases", inferred_asns, actual_asns)


def validate_study(
    world: SyntheticInternet,
    trace_set: TraceSet,
    campaign: TracerouteCampaign,
) -> list[InferenceQuality]:
    """Run every validation; returns one quality record per inference."""
    truth = world.ground_truth
    return [
        validate_blocked_server_inference(trace_set, truth),
        validate_oddball_inference(trace_set, truth),
        validate_strip_location_inference(world, campaign),
    ]
