"""Simulation-time-windowed impairments.

Every fault that acts per packet needs to know *when* it is active,
and the only admissible clock is the simulation clock: wall time would
break the hermetic-epoch contract (a retried shard replaying the same
epoch must sample the same windows).  A :class:`FaultWindow` binds the
scheduler's clock once at installation; activity checks are then two
float comparisons on the hot path.

Three wrappers build on it:

* :class:`LinkFault` — installed as ``Link.fault``; adds delay and/or
  loss while the window is active (flaps and delay spikes).
* :class:`WindowedPolicy` — a middlebox that applies an inner policy
  only inside the window (mid-epoch bleaching turning *on*, NTP
  service brownouts as inbound blackholes).
* :class:`SuppressedPolicy` — the inverse: an existing policy is
  bypassed inside the window (mid-epoch bleaching turning *off*).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..netsim.ipv4 import IPv4Packet
from ..netsim.middlebox import FORWARD, Middlebox, Verdict


@dataclass
class FaultWindow:
    """A half-open ``[start, end)`` interval in absolute sim time."""

    start: float
    end: float
    _clock: object = field(default=None, repr=False, compare=False)

    def bind_clock(self, clock) -> None:
        """Attach the simulation clock (required before sampling)."""
        self._clock = clock

    def active(self) -> bool:
        if self._clock is None:
            raise RuntimeError("FaultWindow has no clock bound")
        return self.start <= self._clock.now < self.end


@dataclass
class LinkFault:
    """Per-link impairment consulted by :meth:`Link._transit`.

    ``extra_delay`` is added to the propagation delay and
    ``loss_probability`` is sampled (before AQM — a flapping physical
    layer loses the packet before any queue sees it) while the window
    is active.  Outside the window the link behaves exactly as built,
    and an idle link (``fault is None``) pays one attribute load.
    """

    window: FaultWindow
    extra_delay: float = 0.0
    loss_probability: float = 0.0

    def active(self) -> bool:
        return self.window.active()

    def sample_loss(self, rng: random.Random) -> bool:
        return self.loss_probability > 0 and rng.random() < self.loss_probability


@dataclass
class WindowedPolicy(Middlebox):
    """Apply ``inner`` only while the window is active.

    Scoping (protocols, addresses, probability) is delegated entirely
    to the inner policy; this wrapper only gates on time.  The wrapper
    reports the inner policy's name so ``middlebox.*`` metrics and
    packet traces attribute actions to the real behaviour.
    """

    inner: Middlebox | None = None
    window: FaultWindow | None = None

    def __post_init__(self) -> None:
        if self.inner is None or self.window is None:
            raise ValueError("WindowedPolicy requires inner and window")
        self.name = self.inner.name

    def process(self, packet: IPv4Packet, rng: random.Random) -> Verdict:
        if not self.window.active():
            return Verdict(FORWARD, packet)
        return self.inner.process(packet, rng)


@dataclass
class SuppressedPolicy(Middlebox):
    """Bypass ``inner`` while the window is active (policy goes dormant).

    Replaces the inner policy in a router's chain for the duration of
    an epoch; the injector restores the original chain afterwards.
    """

    inner: Middlebox | None = None
    window: FaultWindow | None = None

    def __post_init__(self) -> None:
        if self.inner is None or self.window is None:
            raise ValueError("SuppressedPolicy requires inner and window")
        self.name = self.inner.name

    def process(self, packet: IPv4Packet, rng: random.Random) -> Verdict:
        if self.window.active():
            return Verdict(FORWARD, packet)
        return self.inner.process(packet, rng)
