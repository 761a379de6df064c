"""Tests for the discrete event engine."""

import pytest

from repro.netsim.engine import EventScheduler
from repro.netsim.errors import SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(2.0, order.append, "late")
        sched.schedule(1.0, order.append, "early")
        sched.run()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion_order(self):
        sched = EventScheduler()
        order = []
        for tag in ("a", "b", "c"):
            sched.schedule(1.0, order.append, tag)
        sched.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(3.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [3.5]
        assert sched.now == 3.5

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.step()
        seen = []
        sched.schedule(4.0 - sched.now, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [4.0]

    def test_events_scheduled_during_run_execute(self):
        sched = EventScheduler()
        order = []

        def first():
            order.append("first")
            sched.schedule(1.0, lambda: order.append("nested"))

        sched.schedule(1.0, first)
        sched.run()
        assert order == ["first", "nested"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule(1.0, fired.append, "x")
        event.cancel()
        sched.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        event = sched.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sched.run() == 0

    def test_pending_excludes_cancelled(self):
        sched = EventScheduler()
        keep = sched.schedule(1.0, lambda: None)
        drop = sched.schedule(2.0, lambda: None)
        drop.cancel()
        assert sched._pending == 1
        assert not keep.cancelled


class TestRunUntil:
    def test_run_until_stops_at_deadline(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, fired.append, "a")
        sched.schedule(5.0, fired.append, "b")
        count = sched.run_until(2.0)
        assert count == 1
        assert fired == ["a"]
        assert sched.now == 2.0

    def test_run_until_advances_clock_when_queue_empty(self):
        sched = EventScheduler()
        sched.run_until(7.0)
        assert sched.now == 7.0

    def test_run_until_includes_events_at_deadline(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, fired.append, "edge")
        sched.run_until(2.0)
        assert fired == ["edge"]

    def test_remaining_events_fire_on_later_run(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, fired.append, "late")
        sched.run_until(2.0)
        sched.run()
        assert fired == ["late"]


class TestSafety:
    def test_max_events_guard(self):
        sched = EventScheduler()

        def forever():
            sched.schedule(0.0, forever)

        sched.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sched.run(max_events=100)

    def test_dispatched_counter(self):
        sched = EventScheduler()
        for _ in range(5):
            sched.schedule(1.0, lambda: None)
        sched.run()
        assert sched.dispatched == 5


class TestMaxEventsBoundary:
    """The safety valve fires after *exactly* N dispatches."""

    def test_exact_budget_drains_cleanly(self):
        sched = EventScheduler()
        ran = []
        for tag in range(5):
            sched.schedule(1.0, ran.append, tag)
        assert sched.run(max_events=5) == 5
        assert ran == [0, 1, 2, 3, 4]

    def test_valve_fires_before_excess_dispatch(self):
        sched = EventScheduler()
        ran = []

        def forever():
            ran.append(len(ran))
            sched.schedule(0.0, forever)

        sched.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sched.run(max_events=10)
        # Regression: the valve used to let event N+1 run before
        # raising.  Exactly the budget may execute, never more.
        assert len(ran) == 10
        assert sched.dispatched == 10

    def test_zero_budget_with_pending_raises_immediately(self):
        sched = EventScheduler()
        ran = []
        sched.schedule(0.0, ran.append, 1)
        with pytest.raises(SimulationError):
            sched.run(max_events=0)
        assert ran == []


class TestHeapCompaction:
    """Lazily-cancelled events must not accumulate without bound."""

    def test_compaction_evicts_dead_entries(self):
        sched = EventScheduler()
        keep = [sched.schedule(float(i), lambda: None) for i in range(10)]
        doomed = [sched.schedule(100.0 + i, lambda: None) for i in range(500)]
        for event in doomed:
            event.cancel()
        # Dead entries outnumber live ones, so the heap compacts down
        # to (roughly) the live population instead of holding all 510.
        assert sched._pending == 10
        assert len(sched._heap) < 64
        ran = []
        for event in keep:
            event.callback = ran.append
            event.args = (event.seq,)
        sched.run()
        assert ran == [e.seq for e in keep]

    def test_compaction_preserves_dispatch_order(self):
        sched = EventScheduler()
        order = []
        events = [
            sched.schedule(1.0, order.append, i) for i in range(200)
        ]  # all tied at t=1.0: order must come from seq
        for event in events[::2]:
            event.cancel()
        sched.run()
        assert order == [e.seq for e in events[1::2]]

    def test_schedule_cancel_loop_stays_bounded(self):
        sched = EventScheduler()
        for _ in range(10_000):
            sched.schedule(1.0, lambda: None).cancel()
        assert len(sched._heap) <= 128
        assert sched._pending == 0
