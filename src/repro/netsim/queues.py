"""Loss models and active queue management.

Two families of behaviour live here:

* **Loss models** sample whether a transit packet is lost for reasons
  unrelated to congestion signalling (random drops, bursty wireless
  loss).  The paper's methodology — five retransmissions with one
  second timeouts — exists precisely to tolerate this, and its
  false-unreachable analysis depends on it being present.
* **AQM models** decide, per packet, whether a congested queue drops
  the packet or (for ECT-marked packets) sets ECN-CE instead, per
  RFC 3168.  The congested access link at one author's home is the
  paper's motivating example of how this shows up in measurements.

All models draw randomness from a caller-supplied ``random.Random`` so
simulations are reproducible, and all are usable both by the hop-by-hop
event engine and by the analytic fast path (they are pure samplers over
explicit state).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class LossModel:
    """Base class: decides whether a packet is lost on a link."""

    def sample_loss(self, rng: random.Random) -> bool:
        """Return True if the packet should be dropped."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any evolved state (burst/outage position).

        Called at measurement-epoch boundaries so that a shard's
        outcome is a pure function of the epoch seed; stateless models
        inherit this no-op.
        """


@dataclass
class NoLoss(LossModel):
    """A lossless link (typical of datacentre and core hops)."""

    def sample_loss(self, rng: random.Random) -> bool:
        return False


@dataclass
class BernoulliLoss(LossModel):
    """Independent per-packet loss with fixed probability."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"loss probability out of range: {self.probability}")

    def sample_loss(self, rng: random.Random) -> bool:
        return self.probability > 0 and rng.random() < self.probability


@dataclass
class TimedOutageLoss(LossModel):
    """Wall-clock outage bursts over a base loss rate.

    Models wireless access the way campus WiFi actually fails: mostly
    a small random loss rate, punctuated by outages lasting seconds
    (interference, roaming, contention) during which *everything* is
    lost.  Outages arrive as a Poisson process of ``outage_rate`` per
    second with exponentially distributed durations.

    Because an outage spans several seconds of simulated time, it can
    swallow an entire 5-retransmission probe sequence — which is what
    produces the paper's transiently unreachable servers and the
    elevated wireless row of Table 2, effects a per-packet burst model
    cannot reproduce.

    The model needs the simulation clock: call :meth:`bind_clock`
    before first use (the scenario builder does this for all vantage
    access links).
    """

    base: float = 0.002
    outage_rate: float = 1.0 / 240.0  # one outage every ~4 minutes
    outage_duration: float = 5.0  # mean seconds
    #: Loss rate *during* an outage.  Deliberately below 1.0: real
    #: wireless outages are heavy contention, not silence, and the
    #: partial survival is what makes one probe sequence succeed while
    #: its neighbour's five retransmissions all die — the transient
    #: differential reachability of §4.1.
    outage_loss: float = 0.8
    _clock: object = field(default=None, repr=False, compare=False)
    _next_outage: float = field(default=-1.0, repr=False, compare=False)
    _outage_until: float = field(default=0.0, repr=False, compare=False)

    def bind_clock(self, clock) -> None:
        """Attach the simulation clock (required before sampling)."""
        self._clock = clock

    def sample_loss(self, rng: random.Random) -> bool:
        if self._clock is None:
            raise RuntimeError("TimedOutageLoss has no clock bound")
        now = self._clock.now
        if self._next_outage < 0:
            self._next_outage = now + rng.expovariate(self.outage_rate)
        # Advance the outage schedule up to the present.
        while now >= self._next_outage:
            self._outage_until = self._next_outage + rng.expovariate(
                1.0 / self.outage_duration
            )
            self._next_outage = self._outage_until + rng.expovariate(
                self.outage_rate
            )
        if now < self._outage_until:
            return rng.random() < self.outage_loss
        return self.base > 0 and rng.random() < self.base

    def reset(self) -> None:
        self._next_outage = -1.0
        self._outage_until = 0.0


class AQMDecision:
    """Outcome of an AQM check: pass, mark (CE), or drop."""

    PASS = "pass"
    MARK = "mark"
    DROP = "drop"


class AQMModel:
    """Base class: congestion response of a queue to one packet."""

    def sample(self, rng: random.Random, ect_capable: bool) -> str:
        """Return one of the :class:`AQMDecision` constants.

        ``ect_capable`` tells the queue whether the packet carries
        ECT(0)/ECT(1); per RFC 3168 a marking AQM sets CE on those and
        drops the rest.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget evolved queue state (see :meth:`LossModel.reset`)."""


@dataclass
class NoCongestion(AQMModel):
    """An uncongested queue: every packet passes."""

    def sample(self, rng: random.Random, ect_capable: bool) -> str:
        return AQMDecision.PASS


@dataclass
class StaticCongestion(AQMModel):
    """Congestion with a fixed signalling probability.

    With probability ``signal_probability`` the queue signals
    congestion for this packet: CE-mark if the packet is ECT-capable
    (and the queue supports ECN), drop otherwise.  This is the
    steady-state abstraction of RED used on calibrated scenario links.
    """

    signal_probability: float
    ecn_capable_queue: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.signal_probability <= 1.0:
            raise ValueError(
                f"signal probability out of range: {self.signal_probability}"
            )

    def sample(self, rng: random.Random, ect_capable: bool) -> str:
        if self.signal_probability <= 0 or rng.random() >= self.signal_probability:
            return AQMDecision.PASS
        if ect_capable and self.ecn_capable_queue:
            return AQMDecision.MARK
        return AQMDecision.DROP


@dataclass
class REDQueue(AQMModel):
    """Random Early Detection with an EWMA of queue occupancy.

    A faithful (if simplified) RED: the average queue size is an EWMA
    updated per packet from the instantaneous ``queue_len`` the caller
    maintains; between ``min_threshold`` and ``max_threshold`` the
    signalling probability ramps linearly to ``max_probability``, and
    above ``max_threshold`` every packet is signalled.  When
    ``ecn_capable_queue`` is set, ECT packets are CE-marked rather than
    dropped (RFC 3168 §5).
    """

    min_threshold: float = 5.0
    max_threshold: float = 15.0
    max_probability: float = 0.1
    weight: float = 0.2
    ecn_capable_queue: bool = True
    avg_queue: float = field(default=0.0, compare=False)
    queue_len: int = field(default=0, compare=False)

    def observe_queue(self, instantaneous_len: int) -> None:
        """Feed the current instantaneous queue length into the EWMA."""
        self.queue_len = instantaneous_len
        self.avg_queue += self.weight * (instantaneous_len - self.avg_queue)

    def signal_probability(self) -> float:
        """Current probability that a packet is marked/dropped."""
        if self.avg_queue < self.min_threshold:
            return 0.0
        if self.avg_queue >= self.max_threshold:
            return 1.0
        span = self.max_threshold - self.min_threshold
        return self.max_probability * (self.avg_queue - self.min_threshold) / span

    def sample(self, rng: random.Random, ect_capable: bool) -> str:
        prob = self.signal_probability()
        if prob <= 0 or rng.random() >= prob:
            return AQMDecision.PASS
        if ect_capable and self.ecn_capable_queue:
            return AQMDecision.MARK
        return AQMDecision.DROP

    def reset(self) -> None:
        self.avg_queue = 0.0
        self.queue_len = 0
