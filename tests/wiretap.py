"""The tests' wire seam: observe every packet one host sends or receives.

:func:`tap` wraps one host instance's ``send_ip`` and ``deliver``.
The network and the sockets call both through the instance, so the
instance attributes win the lookup on both paths and nothing in
``repro.netsim`` carries a hook for it.  An outbound packet is seen
before the host's outbound filters; an inbound one before its inbound
filters.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.host import Host
from repro.netsim.ipv4 import IPv4Packet

#: ``(direction, packet, sim_time)``; direction is ``"out"`` or ``"in"``.
Observer = Callable[[str, IPv4Packet, float], None]


def tap(host: Host, observer: Observer) -> Callable[[], None]:
    """Call ``observer`` on every packet crossing ``host``; returns a
    removal function that restores the host's own methods."""
    send_ip, deliver = host.send_ip, host.deliver

    def tapped_send_ip(packet: IPv4Packet) -> None:
        observer("out", packet, host.network.scheduler.now)
        send_ip(packet)

    def tapped_deliver(packet: IPv4Packet, now: float) -> None:
        observer("in", packet, now)
        deliver(packet, now)

    host.send_ip = tapped_send_ip
    host.deliver = tapped_deliver

    def remove() -> None:
        vars(host).pop("send_ip", None)
        vars(host).pop("deliver", None)

    return remove
