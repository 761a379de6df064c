"""SLO watchdog tests: rule semantics, alert persistence, determinism.

Rule-engine behaviour is tested against synthetic trend points (pure
functions in, alert documents out).  One slow end-to-end test runs a
real drifted campaign and asserts the acceptance property: the
fresh-look bleaching collapse produces a ``bleaching-trend`` alert in
``alerts.jsonl``, while the frozen control timeline stays silent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignDriver,
    CampaignSpec,
    DEFAULT_RULES,
    SloRule,
    evaluate_rules,
    wall_time_regression,
)
from repro.scenario.timeline import FRESH_LOOK, FROZEN
from repro.spec import StudySpec

from test_driver import fake_materialise


def points(*values, metric="mark_survival_pct", start_year=2015.33, cadence=2.0):
    return [
        {"epoch": i, "year": start_year + i * cadence, metric: value}
        for i, value in enumerate(values)
    ]


class TestRuleValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO rule mode"):
            SloRule(name="x", metric="m", mode="psychic", threshold_pp=1.0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO rule direction"):
            SloRule(
                name="x", metric="m", mode="step-delta",
                threshold_pp=1.0, direction="sideways",
            )

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold_pp"):
            SloRule(name="x", metric="m", mode="step-delta", threshold_pp=0.0)

    def test_direction_gates_breach_sign(self):
        drop = SloRule(
            name="x", metric="m", mode="step-delta",
            threshold_pp=5.0, direction="drop",
        )
        assert drop.breached(-6.0)
        assert not drop.breached(6.0)
        rise = SloRule(
            name="x", metric="m", mode="step-delta",
            threshold_pp=5.0, direction="rise",
        )
        assert rise.breached(6.0)
        assert not rise.breached(-6.0)


class TestEvaluateRules:
    def test_baseline_delta_accumulates_to_breach(self):
        rule = SloRule(
            name="drift", metric="mark_survival_pct",
            mode="baseline-delta", threshold_pp=5.0,
        )
        alerts = evaluate_rules(
            points(90.0, 93.0, 96.0, 97.0), FROZEN, rules=[rule]
        )
        assert [a["epoch"] for a in alerts] == [2, 3]
        assert alerts[0]["reference"] == 90.0
        assert alerts[0]["delta_pp"] == 6.0

    def test_baseline_ratio_is_relative(self):
        rule = SloRule(
            name="collapse", metric="strip_events",
            mode="baseline-ratio", threshold_pp=25.0,
        )
        pts = points(100, 80, 70, metric="strip_events")
        alerts = evaluate_rules(pts, FROZEN, rules=[rule])
        assert [a["epoch"] for a in alerts] == [2]
        assert alerts[0]["delta_pp"] == -30.0

    def test_baseline_ratio_skips_zero_baseline(self):
        rule = SloRule(
            name="collapse", metric="strip_events",
            mode="baseline-ratio", threshold_pp=25.0,
        )
        assert evaluate_rules(
            points(0, 50, metric="strip_events"), FROZEN, rules=[rule]
        ) == []

    def test_step_delta_flags_only_the_jump(self):
        rule = SloRule(
            name="step", metric="mark_survival_pct",
            mode="step-delta", threshold_pp=10.0,
        )
        alerts = evaluate_rules(points(90.0, 91.0, 75.0, 76.0), FROZEN, rules=[rule])
        assert [a["epoch"] for a in alerts] == [2]
        assert alerts[0]["reference"] == 91.0

    def test_timeline_envelope_uses_model_expectation(self):
        rule = SloRule(
            name="envelope", metric="negotiation_pct",
            mode="timeline-envelope", threshold_pp=15.0,
        )
        # FROZEN expects 82 % negotiation at every year.
        alerts = evaluate_rules(
            points(81.0, 60.0, metric="negotiation_pct"), FROZEN, rules=[rule]
        )
        assert [a["epoch"] for a in alerts] == [1]
        assert alerts[0]["reference"] == 82.0

    def test_result_is_pure_and_ordered(self):
        pts = points(100, 60, 50, metric="strip_events")
        first = evaluate_rules(pts, FRESH_LOOK)
        second = evaluate_rules(list(reversed(pts)), FRESH_LOOK)
        assert first == second
        assert first == sorted(first, key=lambda a: (a["epoch"], a["rule"]))

    def test_missing_metric_points_are_skipped(self):
        assert evaluate_rules([{"epoch": 0, "year": 2015.33}], FROZEN) == []

    def test_alert_documents_are_timestamp_free(self):
        alerts = evaluate_rules(points(100, 50, metric="strip_events"), FROZEN)
        assert alerts
        for alert in alerts:
            assert alert["level"] == "alert"
            assert alert["kind"] == "slo-breach"
            assert "wall" not in alert and "time" not in alert


class TestWallTimeRegression:
    def test_flags_epoch_far_above_prior_median(self):
        breaches = wall_time_regression(
            [(0, 2.0), (1, 2.1), (2, 1.9), (3, 9.0)]
        )
        assert [b["epoch"] for b in breaches] == [3]
        assert breaches[0]["rule"] == "epoch-wall-time"
        assert breaches[0]["median_seconds"] == 2.0

    def test_floor_suppresses_fast_campaign_jitter(self):
        # 0.3 s is 10x the median but below the 1 s floor.
        assert wall_time_regression([(0, 0.03), (1, 0.3)]) == []

    def test_first_epoch_never_breaches(self):
        assert wall_time_regression([(0, 100.0)]) == []


class TestArchivePersistence:
    def test_alerts_file_rebuilt_idempotently(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CampaignDriver, "_materialise_epoch", fake_materialise)
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = CampaignDriver.create(tmp_path / "camp", spec, target_epochs=2)
        driver.run()
        archive = driver.archive
        assert archive.alerts_path.exists()
        before = archive.alerts_path.read_bytes()
        archive.refresh_alerts()
        assert archive.alerts_path.read_bytes() == before
        # The fake trend drifts by single points — below every threshold.
        assert archive.alerts() == []

    def test_interrupted_campaign_converges_on_same_alerts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CampaignDriver, "_materialise_epoch", fake_materialise)
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        CampaignDriver.create(tmp_path / "full", spec, target_epochs=4).run()
        half = CampaignDriver.create(tmp_path / "half", spec, target_epochs=2)
        half.run()
        resumed = CampaignDriver.resume(tmp_path / "half", target_epochs=4)
        assert resumed.run() == 2
        assert (tmp_path / "half" / "alerts.jsonl").read_bytes() == (
            tmp_path / "full" / "alerts.jsonl"
        ).read_bytes()

    def test_driver_narrates_new_breaches_once(self, tmp_path, monkeypatch):
        breaching = fake_breaching_materialise()
        monkeypatch.setattr(CampaignDriver, "_materialise_epoch", breaching)
        from repro.obs import EventLog

        log = EventLog()
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = CampaignDriver.create(
            tmp_path / "camp", spec, target_epochs=3, events=log
        )
        driver.run()
        breaches = [e for e in log.since(0) if e["kind"] == "slo-breach"]
        keys = [(e["rule"], e["epoch"]) for e in breaches]
        # Re-merges re-evaluate every epoch; narration stays deduplicated.
        assert len(keys) == len(set(keys))
        assert any(rule == "bleaching-trend" for rule, _ in keys)


def fake_breaching_materialise():
    """A materialiser whose strip counts collapse hard at epoch >= 1."""

    def materialise(self, epoch, drift, directory: Path):
        directory.mkdir(parents=True)
        (directory / "manifest.json").write_text(json.dumps({"epoch": epoch}))
        (directory / "summary.json").write_text(
            json.dumps(
                {
                    "section_4_1": {
                        "avg_udp_plain_reachable": 40.0,
                        "avg_pct_ect_given_plain": 95.0,
                    },
                    "section_4_2": {
                        "pct_hops_passing": 94.0,
                        "strip_events": 100 if epoch == 0 else 10,
                    },
                    "section_4_3": {"pct_negotiated": 80.0},
                }
            )
        )

    return materialise


@pytest.mark.slow
class TestDriftedCampaignAlerts:
    """Acceptance: the fresh-look collapse trips the watchdog for real."""

    def run_campaign(self, directory: Path, timeline: str) -> CampaignDriver:
        spec = CampaignSpec(
            StudySpec(scale=0.02, seed=7), cadence_years=4.0,
            timeline=timeline, pool_churn=False,
        )
        driver = CampaignDriver.create(directory, spec, target_epochs=3)
        driver.run()
        return driver

    def test_fresh_look_produces_bleaching_alert(self, tmp_path):
        driver = self.run_campaign(tmp_path / "drifted", "fresh-look")
        alerts = driver.archive.alerts()
        rules = {a["rule"] for a in alerts}
        assert "bleaching-trend" in rules
        # The report surfaces the same breaches (same pure evaluation).
        report = driver.archive.report_path.read_text()
        assert "SLO watchdog" in report
        assert "bleaching-trend" in report

    def test_frozen_control_stays_silent(self, tmp_path):
        driver = self.run_campaign(tmp_path / "control", "frozen")
        assert driver.archive.alerts() == []
        assert "SLO watchdog" not in driver.archive.report_path.read_text()
