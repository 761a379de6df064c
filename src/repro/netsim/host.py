"""End hosts.

A host owns one address, attaches to one access router, and demuxes
arriving packets to UDP sockets, a TCP stack (attached by
:mod:`repro.tcp`), and ICMP handlers.  The program's record of the
packets a host sends and receives is
:class:`repro.obs.tracing.PathTracer`.  A datagram to an unbound port
is dropped silently, as pool hosts do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from .errors import CodecError, SocketError
from .queues import AQMModel, LossModel
from .icmp import ICMPMessage
from .ipv4 import IPv4Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP, TransportPacket, format_addr
from .middlebox import Middlebox
from .sockets import EPHEMERAL_BASE, EPHEMERAL_LIMIT, UDPHandler, UDPSocket
from .udp import UDPDatagram
from ..obs.metrics import proto_name

#: Pre-built counter names for the protocols every study sends
#: constantly; the f-string + proto_name fallback handles the rest.
_TX_COUNTERS = {
    PROTO_UDP: "host.tx.udp",
    PROTO_TCP: "host.tx.tcp",
    PROTO_ICMP: "host.tx.icmp",
}
_RX_COUNTERS = {
    PROTO_UDP: "host.rx.udp",
    PROTO_TCP: "host.rx.tcp",
    PROTO_ICMP: "host.rx.icmp",
}

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

#: ICMP handler signature: (message, ip_packet, sim_time).
ICMPHandler = Callable[[ICMPMessage, IPv4Packet, float], None]


@dataclass
class AccessLink:
    """The host's attachment to its access router.

    Hosts hang directly off a router in the topology; this descriptor
    carries the last-mile properties: one-way ``delay``, a ``loss``
    model sampled in both directions, and an optional ``upstream_aqm``
    applied to outbound packets only (the congested-upstream home
    broadband case the paper highlights for one author's vantage).
    """

    delay: float = 0.0
    loss: LossModel | None = None
    upstream_aqm: AQMModel | None = None


class TCPStackProtocol(Protocol):
    """What a host requires from an attached TCP stack."""

    def deliver(self, packet: IPv4Packet, now: float) -> None:  # pragma: no cover
        ...

    def reset_ephemeral_state(self) -> None:  # pragma: no cover
        ...


class Host:
    """A simulated end host."""

    def __init__(
        self,
        hostname: str,
        addr: int,
        router_id: str,
    ) -> None:
        self.hostname = hostname
        self.addr = addr
        self.router_id = router_id
        self.network: "Network | None" = None
        self.tcp: TCPStackProtocol | None = None
        self.access = AccessLink()
        self.inbound_filters: list[Middlebox] = []
        self.outbound_filters: list[Middlebox] = []
        self._udp_sockets: dict[int, UDPSocket] = {}
        self._icmp_handlers: list[ICMPHandler] = []
        self._next_ephemeral = EPHEMERAL_BASE
        #: Host-local RNG for inbound-filter sampling (set on attach).
        self._rng = random.Random(0)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, network: "Network", rng_seed: int) -> None:
        """Called by the :class:`~repro.netsim.network.Network` on build."""
        self.network = network
        self._rng = random.Random(rng_seed)

    def reset_measurement_state(self, rng_seed: int) -> None:
        """Reseed/reset every bit of state that evolves while probing.

        Part of the hermetic-epoch contract (see
        :meth:`repro.scenario.internet.SyntheticInternet.begin_epoch`):
        after this call the host behaves exactly like a freshly built
        one seeded with ``rng_seed``, so a shard replayed in another
        process reproduces the same packets bit for bit.  Bound
        listening sockets (NTP 123, HTTP 80) are configuration, not
        evolved state, and are left alone.
        """
        self._rng = random.Random(rng_seed)
        self._next_ephemeral = EPHEMERAL_BASE
        if self.access.loss is not None:
            self.access.loss.reset()
        if self.access.upstream_aqm is not None:
            self.access.upstream_aqm.reset()
        if self.tcp is not None:
            self.tcp.reset_ephemeral_state()

    @property
    def now(self) -> float:
        """Current simulation time (requires attachment)."""
        if self.network is None:
            raise SocketError(f"host {self.hostname!r} is not attached to a network")
        return self.network.scheduler.now

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_ip(self, packet: IPv4Packet) -> None:
        """Hand a fully formed IP packet to the network.

        The tracer observes the packet first (tcpdump runs on the host,
        inside any home-gateway middleboxes), then outbound filters may
        drop or rewrite it before it reaches the access link.
        """
        network = self.network
        if network is None:
            raise SocketError(f"host {self.hostname!r} is not attached to a network")
        metrics = network.metrics
        tracer = network.tracer
        if metrics or tracer:
            # Only observers need the clock; the bare forwarding path
            # (most hosts, observability off) skips the property chain.
            now = network.scheduler.now
            if metrics:
                name = _TX_COUNTERS.get(packet.protocol)
                metrics.incr(name or f"host.tx.{proto_name(packet.protocol)}")
            if tracer and tracer.wants(packet):
                tracer.record(
                    packet, self.hostname, "tx", packet.ecn, packet.ecn, time=now
                )
        for box in self.outbound_filters:
            verdict = box.process(packet, self._rng)
            if verdict.dropped:
                if metrics:
                    metrics.incr(f"middlebox.{box.name}")
                return
            if verdict.reason and metrics:
                metrics.incr(f"middlebox.{box.name}")
            packet = verdict.packet
        network.send(packet, self)

    def udp_bind(self, port: int | None, handler: UDPHandler | None = None) -> UDPSocket:
        """Bind a UDP socket.

        ``port=None`` allocates an ephemeral port.  Raises
        :class:`SocketError` if the requested port is taken.
        """
        if port is None:
            port = self._allocate_ephemeral()
        if port in self._udp_sockets:
            raise SocketError(f"UDP port {port} already bound on {self.hostname}")
        sock = UDPSocket(host=self, port=port, handler=handler)
        self._udp_sockets[port] = sock
        return sock

    def _allocate_ephemeral(self) -> int:
        for _ in range(EPHEMERAL_LIMIT - EPHEMERAL_BASE + 1):
            candidate = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_LIMIT:
                self._next_ephemeral = EPHEMERAL_BASE
            if candidate not in self._udp_sockets:
                return candidate
        raise SocketError(f"no ephemeral UDP ports left on {self.hostname}")

    def release_udp_port(self, port: int) -> None:
        """Unbind a UDP port (called by :meth:`UDPSocket.close`)."""
        self._udp_sockets.pop(port, None)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_icmp(self, handler: ICMPHandler) -> Callable[[], None]:
        """Register an ICMP handler; returns a removal function."""
        self._icmp_handlers.append(handler)

        def remove() -> None:
            if handler in self._icmp_handlers:
                self._icmp_handlers.remove(handler)

        return remove

    def deliver(self, packet: IPv4Packet, now: float) -> None:
        """Entry point for packets arriving from the network."""
        network = self.network
        if network is not None:
            metrics = network.metrics
            tracer = network.tracer
        else:  # pragma: no cover - detached host in unit tests
            metrics = tracer = None
        for box in self.inbound_filters:
            verdict = box.process(packet, self._rng)
            if verdict.dropped:
                if metrics:
                    metrics.incr(f"middlebox.{box.name}")
                return
            if verdict.reason and metrics:
                metrics.incr(f"middlebox.{box.name}")
            packet = verdict.packet
        if metrics:
            name = _RX_COUNTERS.get(packet.protocol)
            metrics.incr(name or f"host.rx.{proto_name(packet.protocol)}")
        if tracer and tracer.wants(packet):
            tracer.record(packet, self.hostname, "rx", packet.ecn, packet.ecn, time=now)
        if packet.protocol == PROTO_UDP:
            self._deliver_udp(packet, now)
        elif packet.protocol == PROTO_TCP:
            if self.tcp is not None:
                self.tcp.deliver(packet, now)
        elif packet.protocol == PROTO_ICMP:
            self._deliver_icmp(packet, now)

    def _deliver_udp(self, packet: IPv4Packet, now: float) -> None:
        if packet.__class__ is TransportPacket:
            datagram = packet.body
        else:
            try:
                datagram = UDPDatagram.decode(packet.payload)
            except CodecError:
                return
        sock = self._udp_sockets.get(datagram.dst_port)
        if sock is not None:
            sock.deliver(datagram, packet, now)

    def _deliver_icmp(self, packet: IPv4Packet, now: float) -> None:
        try:
            message = ICMPMessage.decode(packet.payload)
        except CodecError:
            return
        for handler in list(self._icmp_handlers):
            handler(message, packet, now)

    def __repr__(self) -> str:
        return f"Host({self.hostname!r}, {format_addr(self.addr)} @ {self.router_id})"
