"""Campaign SLO watchdog: declarative rules over the merged trend.

After every epoch's delta-merge the driver re-evaluates a small set of
**SLO rules** against ``trend.json`` and persists the breaches to
``alerts.jsonl`` in the campaign archive.  The watchdog is how a
long-running campaign notices that its measurements have left the
expected corridor — the 2015→2022 bleaching collapse shows up as a
``bleaching-trend`` alert the moment the drifted epochs pull the
§4.2 strip-event count away from the 2015 baseline.

Determinism contract: every rule here is a **pure function of the
trend points and the campaign spec**.  Alerts carry no timestamps, and
``alerts.jsonl`` is rebuilt from scratch on every evaluation, so an
interrupted-and-resumed campaign converges on a byte-identical alert
file — the same discipline as ``trend.json`` and ``report.txt``.

Wall-clock concerns (epoch wall-time regression) deliberately live
outside this file's output: :func:`wall_time_regression` feeds the
driver's **live** event log only, because wall timings can never join
an artefact that must be byte-stable across reruns.

Rule modes:

* ``baseline-ratio`` — the metric at epoch ``N`` has moved more than
  ``threshold_pp`` *percent relative to* epoch 0's value.  This is the
  trend detector (slow drift accumulates until it crosses), robust to
  scale for count-like metrics (``strip_events``) and
  small percentages, where a fixed pp threshold would be meaningless
  at scale 0.02 and trigger on noise at scale 0.1.  A zero baseline
  makes relative change undefined, so those series are skipped.
* ``step-delta`` — the metric jumped more than ``threshold_pp``
  between two *consecutive* epochs: a step change, not drift.
* ``timeline-envelope`` — the measured value strayed more than
  ``threshold_pp`` from what the campaign's own timeline model
  predicts for that year (the expectation is
  ``Timeline.drift_at(year)``).  This is the self-consistency check:
  the synthetic Internet drifts by construction, so a measurement
  outside the model's corridor means the measurement pipeline — not
  the world — changed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..scenario.timeline import Timeline

#: Alert severity carried by every watchdog breach (matches
#: :data:`repro.obs.events.LEVELS`).
ALERT_LEVEL = "alert"


@dataclass(frozen=True)
class SloRule:
    """One declarative SLO rule over a campaign's trend points.

    ``metric`` names a trend-point field (``mark_survival_pct``,
    ``strip_events``, ``negotiation_pct``, ``udp_blackhole_pct``);
    ``mode`` picks the comparison (see module docstring);
    ``threshold_pp`` is the breach threshold — percentage points for
    the delta/envelope modes, percent-of-baseline for
    ``baseline-ratio``; ``direction`` restricts which way the
    excursion must point (``"drop"``, ``"rise"``, or ``"any"``).
    """

    name: str
    metric: str
    mode: str
    threshold_pp: float
    direction: str = "any"

    def __post_init__(self) -> None:
        if self.mode not in ("baseline-ratio", "step-delta", "timeline-envelope"):
            raise ValueError(f"unknown SLO rule mode {self.mode!r}")
        if self.direction not in ("drop", "rise", "any"):
            raise ValueError(f"unknown SLO rule direction {self.direction!r}")
        if self.threshold_pp <= 0:
            raise ValueError(f"threshold_pp must be > 0: {self.threshold_pp!r}")

    def breached(self, delta: float) -> bool:
        """Does a signed excursion of ``delta`` pp breach this rule?"""
        if self.direction == "drop":
            return delta < -self.threshold_pp
        if self.direction == "rise":
            return delta > self.threshold_pp
        return abs(delta) > self.threshold_pp


#: Which timeline series models each trend metric, as a percentage.
#: ``mark_survival_pct`` tracks the bleacher population (fewer
#: bleaching routers => more marks survive), so its envelope is the
#: *complement* of the bleacher scale against the 2015 anchor.
_ENVELOPE_METRICS = ("negotiation_pct",)


def _expected_pct(timeline: Timeline, metric: str, year: float) -> float | None:
    """The timeline model's prediction for ``metric`` at ``year``."""
    if metric == "negotiation_pct":
        return timeline.drift_at(year).negotiate_rate * 100.0
    return None


#: The default rule set the driver evaluates.  Thresholds are sized
#: empirically for the repo's reference scales (0.02–0.1), using the
#: frozen/churn-off timeline as the zero-noise control:
#:
#: * ``strip_events`` is the direct §4.2 bleaching count and the only
#:   metric that tracks the fresh-look collapse (bleacher population
#:   1.0 -> 0.12 over 2015–2022) at *every* reference scale — the
#:   observed drop is 27 % at scale 0.02 and 55 % at 0.05, so a 25 %
#:   relative threshold fires on the collapse at both.
#: * ``mark_survival_pct`` barely moves in absolute terms at small
#:   scales (the bleacher population is a sliver of all hops), so it
#:   only carries the *step* rule for catastrophic jumps.
#: * ``udp_blackhole_pct`` halves under fresh-look (blackhole scale
#:   1.0 -> 0.45); a 30 % relative threshold tracks that, where a
#:   fixed pp threshold could never fit both 5 % (scale 0.02) and
#:   2 % (scale 0.05) baselines.
DEFAULT_RULES: tuple[SloRule, ...] = (
    SloRule(
        name="bleaching-trend",
        metric="strip_events",
        mode="baseline-ratio",
        threshold_pp=25.0,
    ),
    SloRule(
        name="bleaching-step",
        metric="mark_survival_pct",
        mode="step-delta",
        threshold_pp=12.0,
    ),
    SloRule(
        name="blackhole-trend",
        metric="udp_blackhole_pct",
        mode="baseline-ratio",
        threshold_pp=30.0,
    ),
    SloRule(
        name="negotiation-envelope",
        metric="negotiation_pct",
        mode="timeline-envelope",
        threshold_pp=15.0,
    ),
)


def _alert(
    rule: SloRule, point: Mapping, value: float, reference: float, delta: float
) -> dict:
    """One breach, as a timestamp-free alert document."""
    return {
        "level": ALERT_LEVEL,
        "kind": "slo-breach",
        "rule": rule.name,
        "mode": rule.mode,
        "metric": rule.metric,
        "epoch": point["epoch"],
        "year": point["year"],
        "value": round(value, 6),
        "reference": round(reference, 6),
        "delta_pp": round(delta, 6),
        "threshold_pp": rule.threshold_pp,
    }


def evaluate_rules(points: Sequence[Mapping], timeline: Timeline) -> list[dict]:
    """Evaluate :data:`DEFAULT_RULES` over the full trend; returns all breaches.

    Pure and total: the result is a function of ``(points, timeline)``
    alone, every breached ``(rule, epoch)`` pair appears
    exactly once, and the list is ordered by ``(epoch, rule name)`` —
    so rebuilding ``alerts.jsonl`` from it is idempotent.
    """
    ordered = sorted(points, key=lambda p: p["epoch"])
    alerts: list[dict] = []
    for rule in DEFAULT_RULES:
        series = [
            (p, float(p.get(rule.metric, 0.0)))
            for p in ordered
            if rule.metric in p
        ]
        if not series:
            continue
        if rule.mode == "baseline-ratio":
            _, baseline = series[0]
            if baseline == 0:
                continue
            for point, value in series[1:]:
                delta = (value - baseline) / baseline * 100.0
                if rule.breached(delta):
                    alerts.append(_alert(rule, point, value, baseline, delta))
        elif rule.mode == "step-delta":
            for (_, previous), (point, value) in zip(series, series[1:]):
                delta = value - previous
                if rule.breached(delta):
                    alerts.append(_alert(rule, point, value, previous, delta))
        else:  # timeline-envelope
            for point, value in series:
                expected = _expected_pct(timeline, rule.metric, float(point["year"]))
                if expected is None:
                    continue
                delta = value - expected
                if rule.breached(delta):
                    alerts.append(_alert(rule, point, value, expected, delta))
    alerts.sort(key=lambda a: (a["epoch"], a["rule"]))
    return alerts


#: An epoch's wall time breaches at this multiple of the preceding
#: median, and only above this many seconds.
WALL_TIME_FACTOR = 3.0
WALL_TIME_FLOOR_S = 1.0


def wall_time_regression(durations: Sequence[tuple[int, float]]) -> list[dict]:
    """Flag epochs whose wall time regressed vs the preceding median.

    ``durations`` is ``(epoch, wall_seconds)`` pairs in execution
    order.  An epoch breaches when it ran :data:`WALL_TIME_FACTOR`×
    slower than the median of the epochs before it (and above
    :data:`WALL_TIME_FLOOR_S` seconds, so trivially fast campaigns
    never alert on scheduler jitter).

    Wall clocks are not deterministic, so these breaches go to the
    driver's **live** event log only — never to ``alerts.jsonl``.
    """
    breaches: list[dict] = []
    seen: list[float] = []
    for epoch, elapsed in durations:
        if seen:
            ranked = sorted(seen)
            median = ranked[len(ranked) // 2]
            if (
                elapsed > WALL_TIME_FLOOR_S
                and median > 0
                and elapsed > WALL_TIME_FACTOR * median
            ):
                breaches.append(
                    {
                        "level": ALERT_LEVEL,
                        "kind": "slo-breach",
                        "rule": "epoch-wall-time",
                        "epoch": epoch,
                        "wall_seconds": round(elapsed, 3),
                        "median_seconds": round(median, 3),
                        "factor": round(elapsed / median, 3),
                        "threshold_factor": WALL_TIME_FACTOR,
                    }
                )
        seen.append(elapsed)
    return breaches
