"""Discrete event engine.

A small, fast, heap-based scheduler.  Events are callbacks bound to a
simulation time; ties are broken by insertion order so the simulation
is deterministic.  Cancellation is *lazy*: a cancelled event stays in
the heap but is skipped when popped, which keeps :meth:`Event.cancel`
O(1) — important because retransmission timers are cancelled far more
often than they fire.  When dead entries come to dominate (more than
half the heap, above a small floor) the scheduler compacts in place,
so a workload that schedules-and-cancels in a loop stays O(live)
rather than O(ever-scheduled).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from .clock import SimClock
from .errors import SimulationError


class Event:
    """A scheduled callback.  Returned by :meth:`EventScheduler.schedule`."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_scheduler")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        scheduler: "EventScheduler | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler._note_cancelled(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class EventScheduler:
    """Heap-based discrete event scheduler driving a :class:`SimClock`.

    The scheduler owns the clock: time only advances when events are
    dispatched.  Use :meth:`schedule` to enqueue work, then one of the
    ``run*`` methods to execute it.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        #: Heap of ``(time, seq, event)`` entries: ordering compares
        #: plain tuples in C, and the unique ``seq`` breaks time ties
        #: by insertion order, so events themselves are never compared.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._dispatched = 0
        #: Not-yet-cancelled events still queued, kept as a live counter
        #: (cancelled timers stay in the heap lazily): compaction and
        #: :meth:`reset_time` read it.
        self._pending = 0
        #: Observability registry (``repro.obs``); falsey when disabled,
        #: so dispatch/schedule pay one predicate per event when off.
        self.metrics = None

    @property
    def now(self) -> float:
        """Current simulation time (delegates to the clock)."""
        return self.clock.now

    #: Compaction floor: below this heap size, lazily-cancelled entries
    #: are too cheap to be worth a rebuild.
    _COMPACT_MIN = 64

    def _note_removed(self, event: Event) -> None:
        """A queued event left the pending set (cancel or dispatch)."""
        self._pending -= 1
        event._scheduler = None

    def _note_cancelled(self, event: Event) -> None:
        """A queued event was cancelled (still physically in the heap)."""
        self._pending -= 1
        event._scheduler = None
        if self.metrics:
            self.metrics.incr("engine.cancelled")
        # Compact when dead entries outnumber live ones: drop them and
        # re-heapify **in place** (callers — and the run loops — hold
        # references to the heap list, so its identity must survive).
        heap = self._heap
        if len(heap) > self._COMPACT_MIN and self._pending * 2 < len(heap):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            if self.metrics:
                self.metrics.incr("engine.compactions")

    @property
    def dispatched(self) -> int:
        """Total number of events executed so far."""
        return self._dispatched

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which may be cancelled before it
        fires.  ``delay`` must be non-negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay!r}")
        time = self.clock._now + delay
        seq = self._seq
        event = Event(time, seq, callback, args, scheduler=self)
        self._seq = seq + 1
        self._pending += 1
        heapq.heappush(self._heap, (time, seq, event))
        if self.metrics:
            self.metrics.incr("engine.scheduled")
            self.metrics.gauge_max("engine.heap_peak", len(self._heap))
        return event

    def _pop_runnable(self) -> Event | None:
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if not event.cancelled:
                return event
        return None

    def step(self) -> bool:
        """Dispatch the single next event.  Returns False if none remain."""
        event = self._pop_runnable()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        self._dispatched += 1
        self._note_removed(event)
        if self.metrics:
            self.metrics.incr("engine.dispatched")
        event.callback(*event.args)
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the event queue drains.

        Parameters
        ----------
        max_events:
            Optional safety valve; raises :class:`SimulationError` if
            the queue still holds runnable events after exactly this
            many dispatches (useful to catch runaway feedback loops in
            tests).  The valve fires *before* event ``N + 1`` runs, so
            a runaway loop never executes past its budget.

        Returns the number of events dispatched by this call.
        """
        count = 0
        if max_events is None:
            # Unbounded drain: the common case, with the pop/dispatch
            # cycle inlined (no per-event ``step`` + ``_pop_runnable``
            # call pair).  ``heap`` aliases ``self._heap`` — safe
            # because compaction rebuilds that list in place.
            heap = self._heap
            pop = heapq.heappop
            clock = self.clock
            metrics = self.metrics
            while heap:
                event = pop(heap)[2]
                if event.cancelled:
                    continue
                # Heap pops are time-ordered, so the monotonicity check
                # in ``advance_to`` is redundant here.
                clock._now = event.time
                self._dispatched += 1
                self._pending -= 1
                event._scheduler = None
                if metrics:
                    metrics.incr("engine.dispatched")
                event.callback(*event.args)
                count += 1
            return count
        while True:
            if count >= max_events:
                if self._pending:
                    raise SimulationError(f"exceeded max_events={max_events}")
                break
            if not self.step():
                break
            count += 1
        return count

    def run_until(self, deadline: float) -> int:
        """Run events with ``time <= deadline``, then advance the clock.

        The clock is left at ``deadline`` even if the queue drained
        earlier, so timeouts measured against :attr:`now` behave as a
        caller expects.  Returns the number of events dispatched.
        """
        count = 0
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        metrics = self.metrics
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                pop(heap)
                continue
            if entry[0] > deadline:
                break
            pop(heap)
            # Time-ordered pops: monotonicity holds by construction.
            clock._now = entry[0]
            self._dispatched += 1
            self._pending -= 1
            event._scheduler = None
            if metrics:
                metrics.incr("engine.dispatched")
            count += 1
            event.callback(*event.args)
        if deadline > clock._now:
            clock._now = deadline
        return count

    def reset_time(self, when: float) -> None:
        """Jump the clock to ``when``, in any direction.

        Only legal while no pending events are queued (the hermetic
        boundary between measurement epochs — see
        :meth:`repro.scenario.internet.SyntheticInternet.begin_epoch`).
        Lingering lazily-cancelled events are discarded, so the heap
        does not accumulate dead timers across epochs.
        """
        if self._pending:
            raise SimulationError(
                f"cannot reset time with {self._pending} pending events"
            )
        self._heap.clear()
        self.clock.reset_to(when)
