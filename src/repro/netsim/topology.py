"""Topology container: routers, links, hosts, and address ownership.

The scenario package builds a specific synthetic Internet on top of
this; the container itself is policy-free.  It owns:

* the router set and the directed link graph between routers,
* host attachment (every host hangs off exactly one access router),
* address bookkeeping (host lookup by address, prefix → router trie),
* the AS membership of each router (for the AS-boundary analysis).
"""

from __future__ import annotations

from typing import Iterable

from .errors import TopologyError
from .host import Host
from .ipv4 import format_addr
from .link import Link
from .router import Router


class Topology:
    """A mutable network topology."""

    def __init__(self) -> None:
        self.routers: dict[str, Router] = {}
        self.hosts: dict[int, Host] = {}
        #: ``succ[a][b]`` and ``pred[b][a]`` are the link a→b.  Their
        #: insertion order is the order routing breaks ties in.
        self.succ: dict[str, dict[str, Link]] = {}
        self.pred: dict[str, dict[str, Link]] = {}
        self._host_names: dict[str, Host] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_router(self, router: Router) -> Router:
        """Register a router; ids must be unique."""
        if router.router_id in self.routers:
            raise TopologyError(f"duplicate router id {router.router_id!r}")
        self.routers[router.router_id] = router
        self.succ[router.router_id] = {}
        self.pred[router.router_id] = {}
        return router

    def add_link(self, link: Link) -> Link:
        """Register a unidirectional link between two known routers."""
        for endpoint in (link.src, link.dst):
            if endpoint not in self.routers:
                raise TopologyError(f"link references unknown router {endpoint!r}")
        if link.dst in self.succ[link.src]:
            raise TopologyError(f"duplicate link {link.src!r} -> {link.dst!r}")
        self.succ[link.src][link.dst] = link
        self.pred[link.dst][link.src] = link
        return link

    def add_link_pair(self, forward: Link, backward: Link) -> None:
        """Register both directions of a symmetric link."""
        self.add_link(forward)
        self.add_link(backward)

    def add_host(self, host: Host) -> Host:
        """Attach a host to its access router."""
        if host.router_id not in self.routers:
            raise TopologyError(
                f"host {host.hostname!r} attaches to unknown router {host.router_id!r}"
            )
        if host.addr in self.hosts:
            raise TopologyError(f"duplicate host address {format_addr(host.addr)}")
        if host.hostname in self._host_names:
            raise TopologyError(f"duplicate hostname {host.hostname!r}")
        self.hosts[host.addr] = host
        self._host_names[host.hostname] = host
        return host

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def router_for_addr(self, addr: int) -> str | None:
        """The access router ``addr``'s host attaches to, or None."""
        host = self.hosts.get(addr)
        return None if host is None else host.router_id

    def all_links(self) -> Iterable[Link]:
        """Iterate every unidirectional link, grouped by source router."""
        for links in self.succ.values():
            yield from links.values()

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Currently: the router graph must be weakly connected (every
        vantage can reach every server) and every host's router must
        exist (enforced at attach time, re-checked here).
        """
        if self.routers:
            reached = {next(iter(self.routers))}
            frontier = list(reached)
            while frontier:
                here = frontier.pop()
                new = (self.succ[here].keys() | self.pred[here].keys()) - reached
                reached |= new
                frontier.extend(new)
            if len(reached) != len(self.routers):
                raise TopologyError("router graph is not connected")
        for host in self.hosts.values():
            if host.router_id not in self.routers:
                raise TopologyError(
                    f"host {host.hostname!r} attached to missing router"
                )

    def __repr__(self) -> str:
        return (
            f"Topology(routers={len(self.routers)}, links={sum(map(len, self.succ.values()))}, "
            f"hosts={len(self.hosts)})"
        )
