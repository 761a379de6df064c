"""Tests for the simulated clock."""

import pytest

from repro.netsim.clock import (
    DEFAULT_EPOCH_ORIGIN,
    NTP_UNIX_EPOCH_DELTA,
    SimClock,
)
from repro.netsim.errors import SimulationError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(1.5)
        assert clock.now == 1.5

    def test_advance_by(self):
        clock = SimClock()
        clock.advance_to(clock.now + 0.25)
        clock.advance_to(clock.now + 0.25)
        assert clock.now == 0.5

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now == 1.0

    def test_cannot_go_backwards(self):
        clock = SimClock()
        clock.advance_to(2.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)

    def test_negative_delta_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.advance_to(clock.now - 0.1)

    def test_unix_time_tracks_origin(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.unix_time() == DEFAULT_EPOCH_ORIGIN + 5.0

    def test_default_origin_is_2015(self):
        # 2015-04-01: the start of the measurement campaign.
        assert DEFAULT_EPOCH_ORIGIN == 1_427_846_400.0

    def test_ntp_time_offset(self):
        clock = SimClock()
        assert clock.ntp_time() == DEFAULT_EPOCH_ORIGIN + NTP_UNIX_EPOCH_DELTA

    def test_ntp_epoch_delta_value(self):
        # 70 years including 17 leap days.
        assert NTP_UNIX_EPOCH_DELTA == (70 * 365 + 17) * 86400
