"""Buffered (bandwidth-limited) links with real queue dynamics.

The plain :class:`~repro.netsim.link.Link` models congestion
*statistically* (a calibrated signalling probability), which is right
for the wide-area measurement scenario.  For studying ECN's actual
mechanism — queues growing, RED marking ECT packets instead of
dropping them — this module provides a link with a service rate and a
bounded FIFO:

* each packet takes ``bytes * 8 / bandwidth`` seconds to serialise;
* a packet arriving while earlier ones are still in service queues
  behind them; the backlog is tracked analytically as the time the
  link next falls idle, so no per-packet buffer objects are needed;
* when the backlog exceeds ``queue_limit`` packets the arrival is
  tail-dropped — unless a :class:`~repro.netsim.queues.REDQueue` is
  attached, in which case RED sees the instantaneous occupancy and
  marks (ECT) or drops (not-ECT) early, before the tail.

The link needs to know the current time; bind it to the network's
clock with :meth:`bind_clock` (the conftest helpers and examples show
the pattern).  Because the backlog model is "virtual work remaining",
it is exact for FIFO service and correct in both execution modes when
the buffered link is the sender-side bottleneck — the configuration
every example uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .clock import SimClock
from .errors import SimulationError
from .ipv4 import IPv4Packet
from .link import Link
from .queues import AQMDecision, REDQueue
from .ecn import ECN


@dataclass
class BufferedLink(Link):
    """A unidirectional link with finite bandwidth and a FIFO queue."""

    bandwidth: float = 1_000_000.0  # bits per second
    queue_limit: int = 20  # packets
    red: REDQueue | None = None

    _clock: SimClock | None = field(default=None, repr=False, compare=False)
    _next_free: float = field(default=0.0, repr=False, compare=False)

    #: Counters for tests and reporting.
    delivered: int = field(default=0, compare=False)
    tail_drops: int = field(default=0, compare=False)
    red_drops: int = field(default=0, compare=False)
    ce_marks: int = field(default=0, compare=False)

    def bind_clock(self, clock: SimClock) -> None:
        """Attach the simulation clock (required before transit)."""
        self._clock = clock

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def service_time(self, packet: IPv4Packet) -> float:
        """Serialisation delay of one packet at the link rate."""
        return packet.total_length * 8 / self.bandwidth

    def occupancy(self, now: float, service: float) -> int:
        """Instantaneous backlog in packets (approximated from the
        remaining virtual work at the nominal service time)."""
        backlog_seconds = max(self._next_free - now, 0.0)
        return int(backlog_seconds / service) if service > 0 else 0

    # ------------------------------------------------------------------
    # Transit
    # ------------------------------------------------------------------

    def _transit(
        self,
        packet: IPv4Packet,
        rng: random.Random,
        metrics,
        tracer,
    ) -> tuple[bool, float, str]:
        if self._clock is None:
            raise SimulationError(
                f"BufferedLink {self.src}->{self.dst} has no clock bound"
            )
        now = self._clock.now
        service = self.service_time(packet)
        backlog = self.occupancy(now, service)
        traced = tracer and tracer.wants(packet)
        hop = f"{self.src}->{self.dst}" if traced else ""

        if self.red is not None:
            self.red.observe_queue(backlog)
            decision = self.red.sample(rng, packet.ecn.is_ect)
            if metrics:
                metrics.incr(f"queue.{decision}")
            if decision == AQMDecision.DROP:
                self.red_drops += 1
                if traced:
                    tracer.record(packet, hop, "aqm-drop", packet.ecn, packet.ecn)
                return False, self.delay, "aqm-drop"
            if decision == AQMDecision.MARK:
                self.ce_marks += 1
                before = packet.ecn
                packet.set_ecn(ECN.CE)
                if traced:
                    tracer.record(packet, hop, "aqm-mark", before, packet.ecn)

        if backlog >= self.queue_limit:
            self.tail_drops += 1
            if metrics:
                metrics.incr("queue.tail_drop")
            if traced:
                tracer.record(packet, hop, "tail-drop", packet.ecn, packet.ecn)
            return False, self.delay, "aqm-drop"

        if self.loss.sample_loss(rng):
            if metrics:
                metrics.incr("link.loss")
            if traced:
                tracer.record(packet, hop, "loss", packet.ecn, packet.ecn)
            return False, self.delay, "loss"

        depart = max(now, self._next_free) + service
        self._next_free = depart
        self.delivered += 1
        queueing_and_service = depart - now
        jitter = rng.random() * self.jitter if self.jitter > 0 else 0.0
        return True, queueing_and_service + self.delay + jitter, ""


def buffered_pair(
    a: str,
    b: str,
    bandwidth: float,
    delay: float = 0.005,
    queue_limit: int = 20,
    red: REDQueue | None = None,
) -> tuple[BufferedLink, BufferedLink]:
    """Build both directions of a buffered link.

    Each direction gets its own queue state and (if requested) its own
    RED instance.
    """
    import copy

    forward = BufferedLink(
        a, b, delay=delay, bandwidth=bandwidth, queue_limit=queue_limit, red=red
    )
    backward = BufferedLink(
        b,
        a,
        delay=delay,
        bandwidth=bandwidth,
        queue_limit=queue_limit,
        red=copy.deepcopy(red) if red is not None else None,
    )
    return forward, backward
