"""Simulated clocks.

The simulator is fully deterministic: no component reads wall-clock
time.  Every timestamp comes from a :class:`SimClock`, which only moves
when the event engine advances it.  Protocol code (NTP in particular)
needs an epoch-based notion of "current time"; :class:`SimClock`
therefore tracks both a monotonic simulation time (seconds since the
start of the run) and an absolute origin (seconds since the Unix epoch)
so that wire-format timestamps look realistic.
"""

from __future__ import annotations

from .errors import SimulationError

#: Offset between the NTP epoch (1900-01-01) and the Unix epoch
#: (1970-01-01), in seconds.  Used when converting to NTP timestamps.
NTP_UNIX_EPOCH_DELTA = 2_208_988_800

#: Default absolute origin for simulations: 2015-04-01T00:00:00Z, the
#: start of the paper's measurement campaign.
DEFAULT_EPOCH_ORIGIN = 1_427_846_400.0


class SimClock:
    """A monotonic simulated clock.

    Simulation time zero is :data:`DEFAULT_EPOCH_ORIGIN`, the start of
    the paper's measurement campaign, so NTP timestamps decode to
    plausible 2015 dates.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time, in seconds since the run started."""
        return self._now

    def unix_time(self) -> float:
        """Current absolute time as seconds since the Unix epoch."""
        return DEFAULT_EPOCH_ORIGIN + self._now

    def ntp_time(self) -> float:
        """Current absolute time as seconds since the NTP epoch (1900)."""
        return self.unix_time() + NTP_UNIX_EPOCH_DELTA

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when`` (simulation seconds).

        Raises
        ------
        SimulationError
            If ``when`` is earlier than the current time: simulated
            time never flows backwards.
        """
        if when < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {when!r} < {self._now!r}"
            )
        self._now = when

    def reset_to(self, when: float) -> None:
        """Set the clock to ``when``, forwards or backwards.

        Monotonicity is the invariant of a *running* simulation; a
        hermetic epoch reset (no events pending, all stochastic state
        reseeded) is the one place time may legally jump.  Use
        :meth:`EventScheduler.reset_time`, which enforces the
        empty-queue precondition, rather than calling this directly.
        """
        self._now = float(when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
