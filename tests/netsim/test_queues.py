"""Tests for loss models and AQM behaviour."""

import random

import pytest

from repro.netsim.queues import (
    AQMDecision,
    BernoulliLoss,
    NoCongestion,
    NoLoss,
    REDQueue,
    StaticCongestion,
)


class TestLossModels:
    def test_no_loss_never_drops(self):
        rng = random.Random(0)
        model = NoLoss()
        assert not any(model.sample_loss(rng) for _ in range(1000))

    def test_bernoulli_zero_and_one(self):
        rng = random.Random(0)
        assert not any(BernoulliLoss(0.0).sample_loss(rng) for _ in range(100))
        assert all(BernoulliLoss(1.0).sample_loss(rng) for _ in range(100))

    def test_bernoulli_rate_approximation(self):
        rng = random.Random(42)
        model = BernoulliLoss(0.1)
        losses = sum(model.sample_loss(rng) for _ in range(20000))
        assert 0.08 < losses / 20000 < 0.12

    def test_bernoulli_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1)


class TestStaticCongestion:
    def test_no_congestion_passes(self):
        rng = random.Random(0)
        model = NoCongestion()
        assert model.sample(rng, True) == AQMDecision.PASS
        assert model.sample(rng, False) == AQMDecision.PASS

    def test_marks_ect_drops_not_ect(self):
        """RFC 3168: an ECN queue marks ECT packets, drops the rest."""
        rng = random.Random(0)
        model = StaticCongestion(signal_probability=1.0, ecn_capable_queue=True)
        assert model.sample(rng, ect_capable=True) == AQMDecision.MARK
        assert model.sample(rng, ect_capable=False) == AQMDecision.DROP

    def test_non_ecn_queue_drops_everything(self):
        rng = random.Random(0)
        model = StaticCongestion(signal_probability=1.0, ecn_capable_queue=False)
        assert model.sample(rng, ect_capable=True) == AQMDecision.DROP
        assert model.sample(rng, ect_capable=False) == AQMDecision.DROP

    def test_signal_rate(self):
        rng = random.Random(1)
        model = StaticCongestion(signal_probability=0.2)
        signals = sum(
            model.sample(rng, True) != AQMDecision.PASS for _ in range(10000)
        )
        assert 0.17 < signals / 10000 < 0.23

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            StaticCongestion(signal_probability=2.0)


class TestRED:
    def test_below_min_threshold_never_signals(self):
        rng = random.Random(0)
        red = REDQueue(min_threshold=5, max_threshold=15)
        for _ in range(50):
            red.observe_queue(2)
        assert red.signal_probability() == 0.0
        assert red.sample(rng, True) == AQMDecision.PASS

    def test_above_max_threshold_always_signals(self):
        rng = random.Random(0)
        red = REDQueue(min_threshold=5, max_threshold=15, ecn_capable_queue=True)
        for _ in range(200):
            red.observe_queue(30)
        assert red.signal_probability() == 1.0
        assert red.sample(rng, ect_capable=True) == AQMDecision.MARK
        assert red.sample(rng, ect_capable=False) == AQMDecision.DROP

    def test_linear_ramp_between_thresholds(self):
        red = REDQueue(min_threshold=5, max_threshold=15, max_probability=0.1, weight=1.0)
        red.observe_queue(10)  # midway
        assert red.signal_probability() == pytest.approx(0.05)

    def test_ewma_smooths_bursts(self):
        red = REDQueue(weight=0.1)
        red.observe_queue(100)
        # One burst moves the average only 10% of the way.
        assert red.avg_queue == pytest.approx(10.0)

    def test_ect_marked_not_dropped_under_red(self):
        """The ECN value proposition: under RED congestion, ECT packets
        survive (marked) where not-ECT packets die."""
        rng = random.Random(9)
        red = REDQueue(min_threshold=1, max_threshold=3, max_probability=1.0, weight=1.0)
        red.observe_queue(10)
        marks = drops = 0
        for _ in range(200):
            if red.sample(rng, ect_capable=True) == AQMDecision.MARK:
                marks += 1
            if red.sample(rng, ect_capable=False) == AQMDecision.DROP:
                drops += 1
        assert marks == 200
        assert drops == 200
