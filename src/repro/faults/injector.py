"""Applies a fault plan at measurement-epoch boundaries.

The injector is owned by a :class:`~repro.scenario.internet.SyntheticInternet`
and driven from :meth:`begin_epoch`: entering epoch ``i`` first
*reverts* every impairment installed for the previous epoch (restoring
the pristine baseline the world was built with), then installs exactly
the events the plan schedules for ``i``.  Installation draws no
randomness and reads no wall clock, so a faulted epoch remains a pure
function of ``(params, epoch index, plan)`` — the property the
sharded-equals-sequential guarantee rests on.

Fault events are surfaced through the :mod:`repro.obs` metrics
registry when one is installed (``faults.<kind>`` counters plus
``faults.epochs_impaired``), making a chaotic run auditable: the
merged shard counters of a ``workers=N`` chaotic study equal the
sequential study's, like every other deterministic counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..netsim.ipv4 import PROTO_UDP
from ..netsim.middlebox import ECTBleacher, ProtocolBlackhole
from .events import (
    BLEACH_OFF,
    BLEACH_ON,
    DELAY_SPIKE,
    LINK_FLAP,
    NTP_BROWNOUT,
    ROUTER_BLACKHOLE,
    FaultEvent,
    FaultPlan,
)
from .windows import FaultWindow, LinkFault, SuppressedPolicy, WindowedPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenario.internet import SyntheticInternet


class FaultInjector:
    """Installs and reverts one epoch's worth of scheduled faults."""

    def __init__(self, world: "SyntheticInternet", plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self._reverts: list[Callable[[], None]] = []
        self._links_by_id = {
            f"{link.src}->{link.dst}": link for link in world.topology.all_links()
        }

    # ------------------------------------------------------------------
    # Epoch driving
    # ------------------------------------------------------------------
    def begin_epoch(self, index: int, epoch_start: float) -> None:
        """Revert the previous epoch's faults; install this epoch's."""
        self.revert()
        events = self.plan.events_for_epoch(index)
        if not events:
            return
        metrics = self.world.network.metrics
        log = self.world.log
        blackholed: set[str] = set()
        installed = 0
        for event in events:
            if self._install(event, epoch_start, blackholed):
                installed += 1
                if metrics:
                    metrics.incr(f"faults.{event.kind}")
                if log:
                    # begin_epoch runs before the epoch span opens, so
                    # the span timeline files this under the next span
                    # to open: exactly the epoch this fault impairs.
                    log.emit(
                        "fault",
                        "warning",
                        fault=event.kind,
                        target=str(event.target),
                        epoch=index,
                        magnitude=event.magnitude,
                    )
        if blackholed:
            self._set_excluded(frozenset(blackholed))
        if installed and metrics:
            metrics.incr("faults.epochs_impaired")

    def revert(self) -> None:
        """Restore the pristine world (idempotent)."""
        while self._reverts:
            self._reverts.pop()()

    # ------------------------------------------------------------------
    # Installation per kind
    # ------------------------------------------------------------------
    def _install(
        self, event: FaultEvent, epoch_start: float, blackholed: set[str]
    ) -> bool:
        if event.kind == ROUTER_BLACKHOLE:
            if event.target not in self.world.topology.routers:
                return False
            blackholed.add(str(event.target))
            return True
        window = self._window(event, epoch_start)
        if event.kind in (LINK_FLAP, DELAY_SPIKE):
            return self._install_link_fault(event, window)
        if event.kind == BLEACH_ON:
            return self._install_bleach_on(event, window)
        if event.kind == BLEACH_OFF:
            return self._install_bleach_off(event, window)
        if event.kind == NTP_BROWNOUT:
            return self._install_brownout(event, window)
        return False  # pragma: no cover - FaultEvent validates kinds

    def _window(self, event: FaultEvent, epoch_start: float) -> FaultWindow:
        window = FaultWindow(
            start=epoch_start + event.start,
            end=epoch_start + event.start + event.duration,
        )
        window.bind_clock(self.world.network.scheduler.clock)
        return window

    def _install_link_fault(self, event: FaultEvent, window: FaultWindow) -> bool:
        link = self._links_by_id.get(str(event.target))
        if link is None or link.fault is not None:
            return False
        if event.kind == LINK_FLAP:
            link.fault = LinkFault(window=window, loss_probability=event.magnitude)
        else:
            link.fault = LinkFault(window=window, extra_delay=event.magnitude)
        network = self.world.network
        network.invalidate_routes()

        def undo() -> None:
            link.fault = None
            network.invalidate_routes()

        self._reverts.append(undo)
        return True

    def _install_bleach_on(self, event: FaultEvent, window: FaultWindow) -> bool:
        router = self.world.topology.routers.get(str(event.target))
        if router is None:
            return False
        box = WindowedPolicy(
            inner=ECTBleacher(
                name=f"chaos-bleach-{router.router_id}",
                probability=event.magnitude if event.magnitude > 0 else 1.0,
            ),
            window=window,
        )
        router.add_middlebox(box)

        def undo() -> None:
            router.remove_middlebox(box)

        self._reverts.append(undo)
        return True

    def _install_bleach_off(self, event: FaultEvent, window: FaultWindow) -> bool:
        router = self.world.topology.routers.get(str(event.target))
        if router is None:
            return False
        # Swaps boxes in place: the chain stays non-empty, so no lane
        # crosses this router before, during or after the window.
        original = list(router.middleboxes)
        replaced = False
        for position, box in enumerate(original):
            if isinstance(box, ECTBleacher):
                router.middleboxes[position] = SuppressedPolicy(
                    inner=box, window=window
                )
                replaced = True
        if not replaced:
            return False

        def undo() -> None:
            router.middleboxes[:] = original

        self._reverts.append(undo)
        return True

    def _install_brownout(self, event: FaultEvent, window: FaultWindow) -> bool:
        server = self.world.server_by_addr(int(event.target))
        if server is None:
            return False
        host = server.host
        box = WindowedPolicy(
            inner=ProtocolBlackhole(
                name=f"chaos-brownout-{server.hostname}",
                protocols=frozenset({PROTO_UDP}),
            ),
            window=window,
        )
        host.inbound_filters.append(box)

        def undo() -> None:
            if box in host.inbound_filters:
                host.inbound_filters.remove(box)

        self._reverts.append(undo)
        return True

    # ------------------------------------------------------------------
    # Routing exclusion
    # ------------------------------------------------------------------
    def _set_excluded(self, excluded: frozenset[str]) -> None:
        network = self.world.network
        network.set_excluded_routers(excluded)

        def undo() -> None:
            network.set_excluded_routers(frozenset())

        self._reverts.append(undo)
