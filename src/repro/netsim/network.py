"""The network: moves packets across a topology under an event engine.

Two execution modes share identical per-hop semantics (router
middleboxes, TTL, link AQM/loss — see :mod:`repro.netsim.router` and
:mod:`repro.netsim.link`):

* ``"event"`` — every hop is a scheduled event.  Faithful queue-level
  interleaving; right for protocol unit tests and small scenarios.
* ``"fast"`` — the whole path is evaluated analytically when the packet
  is sent, and a single delivery event is scheduled.  Per-hop sampling
  (loss, AQM, middleboxes, TTL) is exactly the same code; only the
  event bookkeeping is folded.  This is what makes probing 2500
  servers from 13 vantage points tractable in pure Python.

Most fast-mode packets ride a *lane*.  When no router on a route has
middleboxes, no link a ``fault``, every link is clean and the
destination's access loss is none or Bernoulli, the route table keeps
a lane with the route: the router count, the destination host and its
access ``(delay, p)``.  With no tracer or metrics registry installed
and a TTL above the router count, :meth:`Network.send` walks it: the
per-hop loop's jitter-then-loss draws, one TTL decrement, the delivery
queued directly.  Everything else takes the per-hop loop.  Whatever
installs or removes a middlebox or a link fault calls
:meth:`Network.invalidate_routes`, which drops every lane.

ICMP errors generated mid-path (TTL expiry — the traceroute mechanism)
are routed back to the original source along the reverse path, subject
to that path's loss, because real traceroutes lose ICMP responses too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from heapq import heappush

from .ecn import ECN, ECT_CAPABLE
from .engine import EventScheduler
from .errors import NetSimError, RoutingError
from .host import Host
from .ipv4 import IPv4Packet, PROTO_ICMP
from .link import Link
from .queues import AQMDecision, BernoulliLoss, NoCongestion, NoLoss
from .router import TRANSIT_DROP, Router
from .routing import RoutingTable
from .topology import Topology

FAST = "fast"
EVENT = "event"

#: Cache-miss sentinel (``None`` is a valid cached route result).
_MISSING = object()


@dataclass
class NetworkCounters:
    """Aggregate statistics, mostly for tests and sanity reports."""

    sent: int = 0
    delivered: int = 0
    dropped_middlebox: int = 0
    dropped_loss: int = 0
    dropped_aqm: int = 0
    dropped_no_route: int = 0
    dropped_host_filter: int = 0
    ttl_expired: int = 0
    icmp_generated: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)

    def note(self, reason: str) -> None:
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


class Network:
    """Binds a topology, a routing table, and an event scheduler."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        mode: str = FAST,
    ) -> None:
        if mode not in (FAST, EVENT):
            raise NetSimError(f"unknown network mode {mode!r}")
        topology.validate()
        self.topology = topology
        self.scheduler = EventScheduler()
        self.routing = RoutingTable(topology)
        self.rng = random.Random(seed)
        self.mode = mode
        self.counters = NetworkCounters()
        #: Observability hooks (:mod:`repro.obs`), installed by
        #: :meth:`set_metrics` and :meth:`set_tracer`; both falsey when
        #: disabled so instrumented paths pay one predicate each.
        self.metrics = None
        self.tracer = None
        self._hop_cache: dict[tuple[str, str], tuple[tuple[Router, Link], ...]] = {}
        #: Destination route table: ``(src_router, dst_addr)`` straight
        #: to ``(hops, lane)`` (see :meth:`_route_to`), skipping the
        #: per-send prefix-trie walk and hop-cache lookup.  Emptied with
        #: the hop cache (topology change, blackhole set) and by
        #: :meth:`invalidate_routes`.
        self._route_cache: dict[tuple[str, int], tuple] = {}
        #: Reverse-path link sequences for ICMP returns, same lifecycle.
        self._icmp_return_cache: dict[tuple[str, str], tuple[Link, ...] | None] = {}
        #: Measurement epochs this network has begun (telemetry only;
        #: see :meth:`begin_epoch`).
        self.epoch_index: int = 0
        #: Routers currently blackholed by the fault layer; see
        #: :meth:`set_excluded_routers`.
        self.excluded_routers: frozenset[str] = frozenset()
        for index, host in enumerate(topology.hosts.values()):
            host.attach(self, rng_seed=seed ^ (0x9E3779B1 * (index + 1) & 0xFFFFFFFF))
        for router in topology.routers.values():
            router.network = self

    def set_metrics(self, metrics) -> None:
        """(Un)install the metrics registry; ``None`` restores the
        zero-cost disabled state.

        Installation is instantaneous, so callers can scope observation
        to exactly one shard on a long-lived world (the runner installs
        a fresh registry per shard this way).  An installed packet
        tracer is left alone.
        """
        self.metrics = metrics
        self.scheduler.metrics = metrics

    def set_tracer(self, tracer) -> None:
        """(Un)install the packet tracer; ``None`` disables tracing."""
        self.tracer = tracer
        if tracer is not None:
            tracer.clock = lambda: self.scheduler.now

    # ------------------------------------------------------------------
    # Path plumbing
    # ------------------------------------------------------------------
    def hops_between(self, src_router: str, dst_router: str) -> tuple[tuple[Router, Link], ...]:
        """Cached ``(router, egress_link)`` hop sequence, destination
        access router included as a final entry with ``link=None``."""
        key = (src_router, dst_router)
        cached = self._hop_cache.get(key)
        if cached is not None:
            return cached
        nodes = self.routing.path(src_router, dst_router)
        succ = self.topology.succ
        routers = self.topology.routers
        hops = []
        for here, there in zip(nodes, nodes[1:]):
            hops.append((routers[here], succ[here][there]))
        hops.append((routers[nodes[-1]], None))
        result = tuple(hops)
        self._hop_cache[key] = result
        return result

    def set_excluded_routers(self, excluded: frozenset[str]) -> None:
        """Blackhole a set of routers: paths reroute around them.

        Models a control-plane event (router death + IGP reconvergence)
        rather than a per-packet impairment, so it is epoch-scoped by
        the fault layer.  The routing table's path cache and this
        network's derived route tables are invalidated when the
        excluded set changes; passing an empty set restores the built
        topology.
        """
        excluded = frozenset(excluded)
        if excluded == self.excluded_routers:
            return
        self.excluded_routers = excluded
        self.routing.set_excluded(excluded)
        self._hop_cache.clear()
        self._icmp_return_cache.clear()
        self.invalidate_routes()

    def invalidate_routes(self) -> None:
        """Forget every compiled route and lane: call after installing or
        removing a middlebox or link fault on a live network.  Routes
        rebuild from the hop cache, so no path is recomputed."""
        self._route_cache.clear()

    def begin_epoch(self) -> None:
        """Mark a measurement-epoch boundary for route-table bookkeeping.

        The per-epoch routing tables (:attr:`_route_cache` /
        :attr:`_icmp_return_cache`) are epoch-stable by construction:
        chaos blackholes arrive via :meth:`set_excluded_routers` at
        exactly this boundary (the fault injector is epoch-scoped), and
        that call clears the tables for precisely the epochs a new
        excluded set covers.  Epochs that share an excluded set
        therefore reuse fully warmed tables instead of rebuilding them
        — strictly cheaper than a per-epoch rebuild, with the same
        invalidation guarantee (a middlebox or link fault install or
        revert only rebuilds :attr:`_route_cache` from the hop cache).
        The counter feeds telemetry and tests.
        """
        self.epoch_index += 1

    def _route_to(self, src_router: str, dst_addr: int):
        """``(hops, lane)`` from ``src_router`` to the host owning
        ``dst_addr`` (cached); ``hops`` is ``None`` when unroutable and
        ``lane`` is ``None`` when the route has none (see :meth:`_lane`).

        Hops are ``(router, link, l_clean, delay, jitter, p)``:
        the link's static cleanliness (uncongested queue, trivially
        sampled loss) and its sampling parameters are resolved once at
        route-build time, so the per-packet loop reads tuple slots
        instead of chasing ``link.aqm.__class__``-style attribute
        chains.  Safe to precompute because AQM/loss *models* are fixed
        at topology build; the only post-build mutations are
        ``link.fault`` and middleboxes (the chaos layer), which the
        per-hop loop reads live and whose installs empty this table.
        """
        key = (src_router, dst_addr)
        route = self._route_cache.get(key)
        if route is not None:
            return route
        hops = lane = None
        dst_router = self.topology.router_for_addr(dst_addr)
        if dst_router is not None:
            try:
                raw = self.hops_between(src_router, dst_router)
            except RoutingError:
                pass
            else:
                hops = tuple(self._fast_hop(router, link) for router, link in raw)
                lane = self._lane(hops, dst_addr)
        route = self._route_cache[key] = (hops, lane)
        return route

    def _lane(self, hops: tuple[tuple, ...], dst_addr: int):
        """``(router count, host, access delay, access p)`` for a clean
        fast-mode route (see the module docstring), else ``None``."""
        host = self.topology.hosts.get(dst_addr)
        if self.mode != FAST or host is None:
            return None
        for router, link, l_clean, _, _, _ in hops:
            if router.middleboxes or (link is not None and (link.fault is not None or not l_clean)):
                return None
        loss = host.access.loss
        loss_cls = loss.__class__
        if loss is not None and loss_cls is not NoLoss and loss_cls is not BernoulliLoss:
            return None
        p = loss.probability if loss_cls is BernoulliLoss else 0.0
        return (len(hops), host, host.access.delay, p)

    @staticmethod
    def _fast_hop(router: Router, link: Link | None):
        """Precomputed per-hop descriptor for the fast-path send loop."""
        if link is None:
            return (router, None, False, 0.0, 0.0, 0.0)
        loss = link.loss
        loss_cls = loss.__class__
        if loss_cls is NoLoss:
            p = 0.0
        elif loss_cls is BernoulliLoss:
            p = loss.probability
        else:
            return (router, link, False, link.delay, link.jitter, 0.0)
        clean = link.aqm.__class__ is NoCongestion
        return (router, link, clean, link.delay, link.jitter, p)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, packet: IPv4Packet, src_host: Host) -> None:
        """Inject a packet from ``src_host`` into the network.

        The network owns ``packet`` from here on: every downstream
        rewrite (TTL decrement, CE mark) happens on it in place, and
        middlebox rewrites replace it with a fresh object.  Callers
        build a new packet per send and do not read it afterwards.
        """
        counters = self.counters
        counters.sent += 1
        # Inline the route-table hit; misses take the full lookup.
        route = self._route_cache.get((src_host.router_id, packet.dst))
        if route is None:
            route = self._route_to(src_host.router_id, packet.dst)
        hops, lane = route
        if hops is None:
            counters.dropped_no_route += 1
            counters.note("no-route")
            return
        if lane is not None and (packet.ttl <= lane[0] or self.metrics or self.tracer):
            lane = None
        rng = self.rng
        access = src_host.access
        loss = access.loss
        loss_cls = None if loss is None else loss.__class__
        if access.upstream_aqm is None and (
            loss is None or loss_cls is NoLoss or loss_cls is BernoulliLoss
        ):
            # Clean-ish access link (no upstream AQM, trivially sampled
            # loss): inline the draw — order and count matching
            # ``_cross_access`` exactly.
            elapsed = access.delay
            if loss_cls is BernoulliLoss:
                p = loss.probability
                if p > 0 and rng.random() < p:
                    if self.metrics:
                        self.metrics.incr("link.loss")
                    counters.dropped_loss += 1
                    counters.note("access-loss")
                    return
        else:
            survived, packet, elapsed = self._cross_access(src_host, packet, outbound=True)
            if not survived:
                return
        if lane is not None:
            # The compiled route: the per-hop loop's draws, float sums
            # and counters, with no router, fault or observer checks.
            routers, host, host_delay, host_p = lane
            # The last hop's zero delay, jitter and loss leave ``elapsed``
            # and the draws unchanged, so it needs no special case.
            for _, _, _, delay, jitter, p in hops:
                if jitter > 0.0:
                    delay += rng.random() * jitter
                elapsed += delay
                if p > 0.0 and rng.random() < p:
                    counters.dropped_loss += 1
                    counters.note("loss")
                    return
            packet.ttl -= routers
            if host_p > 0 and rng.random() < host_p:
                counters.dropped_loss += 1
                counters.note("access-loss")
                return
            counters.delivered += 1
            scheduler = self.scheduler
            when = scheduler.clock._now + (elapsed + host_delay)
            seq = scheduler._seq
            scheduler._seq = seq + 1
            scheduler._pending += 1
            heappush(scheduler._heap, (when, seq, None, host.deliver, packet))
        elif self.mode == FAST:
            self._send_fast(packet, src_host, hops, elapsed)
        else:
            self.scheduler.schedule(
                elapsed, self._send_event, packet, src_host, hops, 0, elapsed
            ) if elapsed > 0 else self._send_event(
                packet, src_host, hops, index=0, elapsed=0.0
            )

    def _cross_access(
        self, host: Host, packet: IPv4Packet, outbound: bool
    ) -> tuple[bool, IPv4Packet, float]:
        """Sample a host's access link; returns (survived, packet, delay).

        ``packet`` is simulator-owned by the time it crosses an access
        link (handed over in :meth:`send`, or an ICMP reply object), so
        the upstream CE mark rewrites it in place.
        """
        access = host.access
        metrics = self.metrics
        if outbound and access.upstream_aqm is not None:
            decision = access.upstream_aqm.sample(
                self.rng, ECT_CAPABLE[packet.tos & 3]
            )
            if metrics:
                metrics.incr("queue." + decision)
            if decision == AQMDecision.DROP:
                self.counters.dropped_aqm += 1
                self.counters.note("access-aqm-drop")
                return False, packet, access.delay
            if decision == AQMDecision.MARK:
                packet.set_ecn(ECN.CE)
        loss = access.loss
        if loss is not None:
            # Inline the dominant loss models (same rng draw count and
            # order as their ``sample_loss``); others delegate.
            loss_cls = loss.__class__
            if loss_cls is NoLoss:
                lost = False
            elif loss_cls is BernoulliLoss:
                p = loss.probability
                lost = p > 0 and self.rng.random() < p
            else:
                lost = loss.sample_loss(self.rng)
            if lost:
                if metrics:
                    metrics.incr("link.loss")
                self.counters.dropped_loss += 1
                self.counters.note("access-loss")
                return False, packet, access.delay
        return True, packet, access.delay

    # ------------------------------------------------------------------
    # Fast mode: fold the whole path at send time
    # ------------------------------------------------------------------
    def _send_fast(
        self,
        packet: IPv4Packet,
        src_host: Host,
        hops: tuple[tuple, ...],
        access_delay: float = 0.0,
    ) -> None:
        rng = self.rng
        metrics = self.metrics
        tracer = self.tracer
        counters = self.counters
        elapsed = access_delay
        for router, link, l_clean, delay, jitter, p in hops:
            # Clean router hop (no middleboxes, no tracer, TTL fine):
            # one in-place decrement, no call.  The rng draw order is
            # untouched — this path never samples.
            if packet.ttl > 1 and not router.middleboxes and not tracer:
                packet.ttl -= 1
                if metrics:
                    metrics.incr("router.forwarded")
            else:
                verdict, packet, icmp, reason = router._transit(
                    packet, rng, metrics, tracer
                )
                if verdict:  # anything but TRANSIT_FORWARD (0)
                    if verdict == TRANSIT_DROP:
                        counters.dropped_middlebox += 1
                        counters.note(reason)
                    else:
                        counters.ttl_expired += 1
                        if icmp is not None:
                            self._return_icmp(
                                router, icmp, packet, src_host, elapsed
                            )
                    return
            if link is None:
                break
            # Clean link hop: uncongested queue, no active fault, no
            # tracer, trivially-sampled loss.  Draw order matches
            # ``Link._transit`` exactly: jitter first, then loss (and
            # the fault check before the draws never samples rng).
            fault = link.fault
            if l_clean and not tracer and (fault is None or not fault.active()):
                if jitter > 0.0:
                    delay += rng.random() * jitter
                if metrics:
                    metrics.incr("queue.pass")
                elapsed += delay
                if p > 0.0 and rng.random() < p:
                    if metrics:
                        metrics.incr("link.loss")
                    counters.dropped_loss += 1
                    counters.note("loss")
                    return
            else:
                delivered, delay, reason = link._transit(
                    packet, rng, metrics, tracer
                )
                elapsed += delay
                if not delivered:
                    if reason == "aqm-drop":
                        counters.dropped_aqm += 1
                    else:
                        counters.dropped_loss += 1
                    counters.note(reason)
                    return
        self._deliver_to_host(packet, elapsed)

    # ------------------------------------------------------------------
    # Event mode: one event per hop
    # ------------------------------------------------------------------
    def _send_event(
        self,
        packet: IPv4Packet,
        src_host: Host,
        hops: tuple[tuple, ...],
        index: int,
        elapsed: float,
    ) -> None:
        rng = self.rng
        counters = self.counters
        entry = hops[index]
        router, link = entry[0], entry[1]
        verdict, packet, icmp, reason = router._transit(
            packet, rng, self.metrics, self.tracer
        )
        if verdict:
            if verdict == TRANSIT_DROP:
                counters.dropped_middlebox += 1
                counters.note(reason)
            else:
                counters.ttl_expired += 1
                if icmp is not None:
                    # The clock already advanced by the forward delay in
                    # event mode; only the return path remains.
                    self._return_icmp(router, icmp, packet, src_host, 0.0)
            return
        if link is None:
            self._deliver_to_host(packet, 0.0)
            return
        delivered, delay, reason = link._transit(packet, rng, self.metrics, self.tracer)
        if not delivered:
            if reason == "aqm-drop":
                counters.dropped_aqm += 1
            else:
                counters.dropped_loss += 1
            counters.note(reason)
            return
        self.scheduler.schedule(
            delay,
            self._send_event,
            packet,
            src_host,
            hops,
            index + 1,
            elapsed + delay,
        )

    # ------------------------------------------------------------------
    # Delivery and ICMP return
    # ------------------------------------------------------------------
    def _deliver_to_host(self, packet: IPv4Packet, delay: float) -> None:
        host = self.topology.hosts.get(packet.dst)
        if host is None:
            self.counters.dropped_no_route += 1
            self.counters.note("no-host")
            return
        access = host.access
        loss = access.loss
        loss_cls = None if loss is None else loss.__class__
        if loss is None or loss_cls is NoLoss or loss_cls is BernoulliLoss:
            # Inbound crossings only sample loss (AQM is upstream-only);
            # inline the trivial models, draw order matching
            # ``_cross_access`` exactly.
            if loss_cls is BernoulliLoss:
                p = loss.probability
                if p > 0 and self.rng.random() < p:
                    if self.metrics:
                        self.metrics.incr("link.loss")
                    self.counters.dropped_loss += 1
                    self.counters.note("access-loss")
                    return
            delay += access.delay
        else:
            survived, packet, access_delay = self._cross_access(
                host, packet, outbound=False
            )
            if not survived:
                return
            delay += access_delay
        self.counters.delivered += 1
        # A sum of non-negative delays: ``schedule``'s guard holds.
        self.scheduler._push(delay, host.deliver, packet)

    def _icmp_return_links(
        self, origin_router: str, dst_router: str
    ) -> tuple[Link, ...] | None:
        """Cached reverse-path link sequence for ICMP returns.

        ``None`` (also cached) means no return route exists under the
        current excluded-router set.
        """
        key = (origin_router, dst_router)
        cache = self._icmp_return_cache
        hit = cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        links: tuple[Link, ...] | None
        try:
            nodes = self.routing.path(origin_router, dst_router)
        except RoutingError:
            links = None
        else:
            succ = self.topology.succ
            links = tuple(succ[here][there] for here, there in zip(nodes, nodes[1:]))
        cache[key] = links
        return links

    def _return_icmp(
        self,
        origin: Router,
        icmp,
        original: IPv4Packet,
        src_host: Host,
        forward_elapsed: float,
    ) -> None:
        """Route an ICMP error from ``origin`` back to the prober.

        The reverse path contributes its propagation delays and loss
        sampling; middlebox chains and AQM are not re-applied to ICMP
        (errors are small, rarely policed by the behaviours we model,
        and never ECT-marked).
        """
        self.counters.icmp_generated += 1
        reply = IPv4Packet(
            src=origin.interface_addr,
            dst=original.src,
            protocol=PROTO_ICMP,
            payload=icmp.encode(),
        )
        links = self._icmp_return_links(origin.router_id, src_host.router_id)
        if links is None:
            self.counters.note("icmp-no-return-route")
            return
        rng = self.rng
        elapsed = forward_elapsed
        for link in links:
            elapsed += link.delay + (rng.random() * link.jitter if link.jitter > 0 else 0.0)
            if link.loss.sample_loss(rng):
                self.counters.note("icmp-return-loss")
                return
        survived, reply, access_delay = self._cross_access(src_host, reply, outbound=False)
        if not survived:
            self.counters.note("icmp-return-loss")
            return
        elapsed = max(elapsed + access_delay, 0.0)
        self.scheduler._push(elapsed, src_host.deliver, reply)

    def __repr__(self) -> str:
        return f"Network(mode={self.mode}, {self.topology!r})"
