"""Tests for the timed-outage wireless loss model."""

import random

import pytest

from repro.netsim.clock import SimClock
from repro.netsim.queues import TimedOutageLoss


def bound_model(**kwargs):
    model = TimedOutageLoss(**kwargs)
    clock = SimClock()
    model.bind_clock(clock)
    return model, clock


class TestSchedule:
    def test_requires_clock(self):
        with pytest.raises(RuntimeError):
            TimedOutageLoss().sample_loss(random.Random(0))

    def test_no_outages_means_base_rate(self):
        model, clock = bound_model(base=0.1, outage_rate=1e-9)
        rng = random.Random(1)
        losses = sum(model.sample_loss(rng) for _ in range(5000))
        assert 0.07 < losses / 5000 < 0.13

    def test_outage_window_is_contiguous(self):
        model, clock = bound_model(
            base=0.0, outage_rate=1.0 / 50.0, outage_duration=5.0, outage_loss=1.0
        )
        rng = random.Random(2)
        # Walk time forward in small steps; losses must form runs, not
        # isolated scatter.
        states = []
        for step in range(4000):
            clock.advance_to(step * 0.1)
            states.append(model.sample_loss(rng))
        transitions = sum(1 for a, b in zip(states, states[1:]) if a != b)
        loss_fraction = sum(states) / len(states)
        assert 0.02 < loss_fraction < 0.35
        # Far fewer transitions than losses: losses cluster in windows.
        assert transitions < sum(states) / 3

    def test_coverage_matches_rate_times_duration(self):
        model, clock = bound_model(
            base=0.0, outage_rate=1.0 / 100.0, outage_duration=10.0, outage_loss=1.0
        )
        rng = random.Random(3)
        in_outage = 0
        samples = 40_000
        for step in range(samples):
            clock.advance_to(step * 0.25)  # 10k seconds total
            if model.sample_loss(rng):
                in_outage += 1
        coverage = in_outage / samples
        assert 0.05 < coverage < 0.16  # expected ~10%

    def test_partial_outage_loss(self):
        model, clock = bound_model(
            base=0.0, outage_rate=1000.0, outage_duration=1e9, outage_loss=0.5
        )
        rng = random.Random(4)
        model.sample_loss(rng)  # initialises the schedule
        clock.advance_to(10.0)  # far past the first (endless) outage start
        model.sample_loss(rng)
        assert clock.now < model._outage_until  # inside the outage window
        losses = sum(model.sample_loss(rng) for _ in range(4000))
        assert 0.45 < losses / 4000 < 0.55

    def test_outages_skipped_between_sparse_samples(self):
        """Sampling long after several outages have come and gone must
        not report a stale outage."""
        model, clock = bound_model(
            base=0.0, outage_rate=1.0 / 10.0, outage_duration=1.0, outage_loss=1.0
        )
        rng = random.Random(5)
        model.sample_loss(rng)
        clock.advance_to(10_000.0)
        # Immediately after the jump we are almost surely not inside
        # an outage window (coverage ~10%); repeated sampling at the
        # same instant is consistent.
        first = model.sample_loss(rng)
        if clock.now >= model._outage_until:  # outside any outage window
            assert first is False


class TestScenarioIntegration:
    def test_wireless_vantage_uses_timed_outages(self, shared_world):
        loss = shared_world.vantage_hosts["ugla-wireless"].access.loss
        assert isinstance(loss, TimedOutageLoss)
        assert loss._clock is shared_world.network.scheduler.clock

    def test_wired_vantage_does_not(self, shared_world):
        from repro.netsim.queues import BernoulliLoss

        loss = shared_world.vantage_hosts["ugla-wired"].access.loss
        assert isinstance(loss, BernoulliLoss)
