"""Sim-time fault windows and the windowed impairment wrappers."""

import random

import pytest

from repro.faults import FaultWindow, LinkFault, SuppressedPolicy, WindowedPolicy
from repro.netsim.ecn import ECN
from repro.netsim.ipv4 import IPv4Packet, PROTO_UDP, parse_addr
from repro.netsim.middlebox import ECTBleacher


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def _packet(ecn=ECN.ECT_0):
    return IPv4Packet(
        src=parse_addr("192.0.2.1"),
        dst=parse_addr("198.51.100.1"),
        protocol=PROTO_UDP,
        tos=int(ecn),
    )


class TestFaultWindow:
    def test_requires_bound_clock(self):
        window = FaultWindow(start=0.0, end=10.0)
        with pytest.raises(RuntimeError, match="no clock"):
            window.active()

    def test_half_open_interval(self):
        clock = FakeClock()
        window = FaultWindow(start=5.0, end=10.0)
        window.bind_clock(clock)
        for now, expected in ((4.999, False), (5.0, True), (9.999, True), (10.0, False)):
            clock.now = now
            assert window.active() is expected

    def test_infinite_window_covers_everything(self):
        clock = FakeClock(now=1e12)
        window = FaultWindow(start=0.0, end=float("inf"))
        window.bind_clock(clock)
        assert window.active()


class TestLinkFault:
    def _fault(self, clock, **kw):
        window = FaultWindow(start=0.0, end=100.0)
        window.bind_clock(clock)
        return LinkFault(window=window, **kw)

    def test_certain_loss_inside_window(self):
        fault = self._fault(FakeClock(now=50.0), loss_probability=1.0)
        assert fault.active()
        assert fault.sample_loss(random.Random(1))

    def test_no_loss_when_probability_zero(self):
        fault = self._fault(FakeClock(now=50.0), extra_delay=0.25)
        assert fault.active()
        assert not fault.sample_loss(random.Random(1))
        assert fault.extra_delay == 0.25

    def test_inactive_outside_window(self):
        fault = self._fault(FakeClock(now=200.0), loss_probability=1.0)
        assert not fault.active()


class TestWindowedPolicies:
    def _window(self, clock, start=0.0, end=100.0):
        window = FaultWindow(start=start, end=end)
        window.bind_clock(clock)
        return window

    def test_windowed_policy_applies_only_inside(self):
        clock = FakeClock(now=50.0)
        policy = WindowedPolicy(
            inner=ECTBleacher(name="chaos-bleach"),
            window=self._window(clock),
        )
        rng = random.Random(1)
        inside = policy.process(_packet(), rng)
        assert inside.packet.ecn is ECN.NOT_ECT
        clock.now = 150.0
        outside = policy.process(_packet(), rng)
        assert outside.packet.ecn is ECN.ECT_0

    def test_windowed_policy_reports_inner_name(self):
        policy = WindowedPolicy(
            inner=ECTBleacher(name="chaos-bleach"),
            window=self._window(FakeClock()),
        )
        assert policy.name == "chaos-bleach"

    def test_windowed_policy_requires_both_fields(self):
        with pytest.raises(ValueError):
            WindowedPolicy(inner=ECTBleacher())
        with pytest.raises(ValueError):
            WindowedPolicy(window=self._window(FakeClock()))

    def test_suppressed_policy_bypasses_inside(self):
        clock = FakeClock(now=50.0)
        policy = SuppressedPolicy(
            inner=ECTBleacher(name="bleach"),
            window=self._window(clock),
        )
        rng = random.Random(1)
        inside = policy.process(_packet(), rng)
        assert inside.packet.ecn is ECN.ECT_0, "policy should be dormant in-window"
        clock.now = 150.0
        outside = policy.process(_packet(), rng)
        assert outside.packet.ecn is ECN.NOT_ECT
