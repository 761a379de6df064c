"""TCP connections with RFC 3168 ECN negotiation.

This is a deliberately compact but *behaviourally real* TCP: three-way
handshake, cumulative ACKs, retransmission with exponential backoff,
FIN teardown, RST handling — enough to carry HTTP requests across a
lossy simulated Internet.  What it models carefully, because the paper
measures exactly this, is ECN:

* a client can send an **ECN-setup SYN** (ECE+CWR set, IP field
  not-ECT — see the paper's footnote 1: the SYN itself is never
  ECT-marked, so UDP and TCP probe response rates are not directly
  comparable);
* servers implement one of several observed policies
  (:class:`ECNServerPolicy`): negotiate per RFC 3168, ignore the
  request, reflect both bits (broken — the client must treat that as
  non-ECN), or silently drop ECN-setup SYNs (the failure mode Langley
  reported for ~0.5 % of hosts in 2008);
* once negotiated, data segments are sent ECT(0)-marked, CE marks are
  echoed with ECE until the sender responds with CWR.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..netsim.ecn import ECN
from ..netsim.engine import Event
from ..netsim.errors import CodecError, SocketError
from ..netsim.ipv4 import DEFAULT_TTL, PROTO_TCP, IPv4Packet, TransportPacket, format_addr
from .segment import ACK, CWR, DEFAULT_MSS, ECE, FIN, PSH, RST, SYN, TCPSegment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..netsim.host import Host

#: Retransmissions of a SYN, and of a data segment, before giving up.
SYN_RETRIES = 2
DATA_RETRIES = 4
#: Initial retransmission timeout in seconds, doubled per retry.
RTO_INITIAL = 1.0


class ECNServerPolicy(enum.Enum):
    """How a server responds to an ECN-setup SYN."""

    #: RFC 3168-compliant: reply with an ECN-setup SYN-ACK, use ECN.
    NEGOTIATE = "negotiate"
    #: ECN-unaware: reply with a plain SYN-ACK.
    IGNORE = "ignore"
    #: Broken: reflect both ECE and CWR on the SYN-ACK (clients must
    #: treat this as a failed negotiation).
    REFLECT = "reflect"
    #: Pathological: silently ignore ECN-setup SYNs while answering
    #: plain SYNs normally.
    DROP_ECN_SYN = "drop-ecn-syn"


class ConnState(enum.Enum):
    """Connection states (the subset of RFC 793 we traverse)."""

    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"
    FAILED = "failed"


@dataclass
class ECNStats:
    """Per-connection ECN accounting, used by tests and analysis."""

    ect_data_sent: int = 0
    ce_received: int = 0
    ece_sent: int = 0
    ece_received: int = 0
    cwr_sent: int = 0
    cwr_received: int = 0


#: Callback signatures.
EstablishedFn = Callable[["TCPConnection"], None]
DataFn = Callable[["TCPConnection", bytes], None]
CloseFn = Callable[["TCPConnection", str], None]
FailureFn = Callable[["TCPConnection", str], None]


class TCPConnection:
    """One end of a TCP connection."""

    def __init__(
        self,
        stack: "TCPStack",
        local_port: int,
        remote_addr: int,
        remote_port: int,
        iss: int,
        use_ecn: bool = False,
    ) -> None:
        self.stack = stack
        self._scheduler = stack.scheduler
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.use_ecn = use_ecn
        self.syn_retries = SYN_RETRIES
        self.data_retries = DATA_RETRIES

        self.state = ConnState.CLOSED
        self.ecn_active = False
        #: Flag bits observed on the peer's SYN/SYN-ACK (None until seen);
        #: the measurement application records this to decide whether
        #: an ECN-setup SYN-ACK came back.
        self.peer_syn_flags: int | None = None
        self.ecn_stats = ECNStats()

        self.snd_nxt = iss
        self.snd_una = iss
        self.rcv_nxt = 0
        self._ece_pending = False
        self._cwr_pending = False
        #: Test instrumentation (Kühlewind et al.'s usability check):
        #: when set, the next ECT-eligible data segment is sent with
        #: ECN-CE already applied, as if a router had marked it.
        self.force_ce_once = False

        #: Unacknowledged segments: list of (seq, payload, flags).
        self._retx_queue: list[tuple[int, bytes, int]] = []
        self._retx_timer: Event | None = None
        self._retx_count = 0
        self._rto = RTO_INITIAL

        # Congestion control (RFC 5681 slow start/AIMD, RFC 6928
        # initial window, RFC 3168 §6.1.2 ECE-triggered reduction).
        #: Congestion window, in segments.
        self.cwnd: float = 10.0
        #: Slow-start threshold, in segments.
        self.ssthresh: float = 64.0
        #: Application bytes accepted but not yet transmitted (window-
        #: gated).
        self._send_queue: list[bytes] = []
        #: snd_nxt at the last window reduction: at most one reduction
        #: per window of data (RFC 3168 §6.1.2).
        self._last_reduction_mark = iss
        #: True when close() ran with data still queued; the FIN goes
        #: out once the send queue drains.
        self._fin_pending = False

        self.on_established: EstablishedFn | None = None
        self.on_data: DataFn | None = None
        self.on_close: CloseFn | None = None
        self.on_failure: FailureFn | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple[int, int, int]:
        return (self.local_port, self.remote_addr, self.remote_port)

    def send(self, data: bytes) -> None:
        """Queue application data for reliable, window-gated delivery."""
        if self.state not in (ConnState.ESTABLISHED, ConnState.CLOSE_WAIT):
            raise SocketError(f"cannot send in state {self.state.value}")
        for start in range(0, len(data), DEFAULT_MSS):
            self._send_queue.append(data[start : start + DEFAULT_MSS])
        self._pump_send_queue()

    @property
    def in_flight(self) -> int:
        """Unacknowledged segments currently in the network."""
        return len(self._retx_queue)

    def _pump_send_queue(self) -> None:
        """Transmit queued data while the congestion window allows."""
        while self._send_queue and self.in_flight < int(self.cwnd):
            chunk = self._send_queue.pop(0)
            self._send_and_track(ACK | PSH, chunk)
        if self._fin_pending and not self._send_queue:
            self._fin_pending = False
            self._send_and_track(FIN | ACK, b"", syn_or_fin=True)

    # ------------------------------------------------------------------
    # Congestion control
    # ------------------------------------------------------------------
    def _on_ack_progress(self, newly_acked_segments: int) -> None:
        """Grow cwnd: slow start below ssthresh, AIMD above."""
        for _ in range(newly_acked_segments):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / self.cwnd
        self._pump_send_queue()

    def _congestion_reduce(self, to_one: bool = False) -> None:
        """Multiplicative decrease (ECE or retransmission timeout)."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0 if to_one else self.ssthresh
        self._last_reduction_mark = self.snd_nxt

    def close(self) -> None:
        """Begin an orderly shutdown (send FIN after any queued data)."""
        if self.state is ConnState.ESTABLISHED:
            self.state = ConnState.FIN_WAIT_1
        elif self.state is ConnState.CLOSE_WAIT:
            self.state = ConnState.LAST_ACK
        elif self.state in (ConnState.CLOSED, ConnState.FAILED, ConnState.TIME_WAIT):
            return
        else:
            self._teardown("aborted")
            return
        if self._send_queue:
            # Window-gated data is still waiting; the FIN must carry a
            # sequence number after it, so send it when the queue
            # drains (see _pump_send_queue).
            self._fin_pending = True
            return
        self._send_and_track(FIN | ACK, b"", syn_or_fin=True)

    def abort(self, reason: str = "aborted") -> None:
        """Tear the connection down immediately (send RST if useful)."""
        if self.state in (ConnState.CLOSED, ConnState.FAILED):
            return
        if self.state is not ConnState.SYN_SENT:
            self._emit(RST | ACK, b"")
        self._teardown(reason)

    # ------------------------------------------------------------------
    # Segment transmission
    # ------------------------------------------------------------------
    def _send_and_track(self, flags: int, payload: bytes, syn_or_fin: bool = False) -> None:
        seq = self.snd_nxt
        self.snd_nxt += len(payload) + (1 if syn_or_fin else 0)
        self._retx_queue.append((seq, payload, flags))
        self._emit(flags, payload, seq)
        self._arm_retx_timer()

    def _emit(self, flags: int, payload: bytes, seq: int | None = None) -> None:
        """Build one segment and hand it to the IP layer."""
        if seq is None:
            seq = self.snd_nxt
        if self._ece_pending and (flags & ACK):
            flags |= ECE
            self.ecn_stats.ece_sent += 1
        if self._cwr_pending and payload:
            flags |= CWR
            self._cwr_pending = False
            self.ecn_stats.cwr_sent += 1
        segment = TCPSegment(
            self.local_port,
            self.remote_port,
            seq,
            self.rcv_nxt if (flags & ACK) else 0,
            flags,
            payload=payload,
            mss=DEFAULT_MSS if (flags & SYN) else None,
        )
        # RFC 3168: only data segments of an ECN-negotiated connection
        # are ECT-marked; SYNs, pure ACKs and retransmissions of the
        # handshake are sent not-ECT.
        ecn_mark = ECN.NOT_ECT
        if self.ecn_active and payload:
            ecn_mark = ECN.ECT_0
            self.ecn_stats.ect_data_sent += 1
            if self.force_ce_once:
                ecn_mark = ECN.CE
                self.force_ce_once = False
        self.stack.transmit(self.remote_addr, segment, ecn_mark)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _arm_retx_timer(self) -> None:
        if self._retx_timer is None and self._retx_queue:
            self._retx_timer = self._scheduler.schedule(self._rto, self._on_retx_timeout)

    def _cancel_retx_timer(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _on_retx_timeout(self) -> None:
        self._retx_timer = None
        if not self._retx_queue or self.state in (ConnState.CLOSED, ConnState.FAILED):
            return
        limit = self.syn_retries if self.state is ConnState.SYN_SENT else self.data_retries
        if self._retx_count >= limit:
            reason = "syn-timeout" if self.state is ConnState.SYN_SENT else "retx-timeout"
            self._teardown(reason)
            return
        self._retx_count += 1
        self._rto *= 2
        if self.state is not ConnState.SYN_SENT:
            self._congestion_reduce(to_one=True)
        seq, payload, flags = self._retx_queue[0]
        self._emit(flags, payload, seq)
        self._retx_timer = self._scheduler.schedule(self._rto, self._on_retx_timeout)

    def _ack_retx_queue(self, ack: int) -> None:
        """Drop fully acknowledged segments; reset backoff on progress."""
        acked = 0
        while self._retx_queue:
            seq, payload, flags = self._retx_queue[0]
            seg_len = len(payload) + (1 if flags & (SYN | FIN) else 0)
            if ack >= seq + seg_len:
                self._retx_queue.pop(0)
                acked += 1
            else:
                break
        if acked:
            self.snd_una = ack
            self._retx_count = 0
            self._rto = RTO_INITIAL
            self._cancel_retx_timer()
            self._arm_retx_timer()
            self._on_ack_progress(acked)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def handle_segment(self, segment: TCPSegment, packet: IPv4Packet) -> None:
        """Process one arriving segment (called by the stack demux)."""
        if packet.ecn.is_ce:
            self.ecn_stats.ce_received += 1
            self._ece_pending = True
        if segment.flags & ECE and not (segment.flags & SYN):
            self.ecn_stats.ece_received += 1
            # RFC 3168 §6.1.2: react as if a packet were dropped —
            # halve the window, at most once per window of data — and
            # acknowledge with CWR on the next data segment.
            self._cwr_pending = True
            if segment.ack > self._last_reduction_mark or (
                self.snd_una > self._last_reduction_mark
            ):
                self._congestion_reduce()
        if segment.flags & CWR and not (segment.flags & SYN):
            self.ecn_stats.cwr_received += 1
            self._ece_pending = False

        if segment.flags & RST:
            self._teardown("refused" if self.state is ConnState.SYN_SENT else "reset")
            return

        handler = _STATE_HANDLERS.get(self.state)
        if handler is not None:
            handler(self, segment)

    def _handle_syn_sent(self, segment: TCPSegment) -> None:
        if not segment.is_synack:
            return
        self.peer_syn_flags = segment.flags
        if self.use_ecn and segment.is_ecn_setup_synack:
            self.ecn_active = True
        self.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        self._ack_retx_queue(segment.ack)
        self.state = ConnState.ESTABLISHED
        self._emit(ACK, b"")
        if self.on_established is not None:
            self.on_established(self)

    def _handle_syn_rcvd(self, segment: TCPSegment) -> None:
        if segment.flags & ACK:
            self._ack_retx_queue(segment.ack)
            self.state = ConnState.ESTABLISHED
            if self.on_established is not None:
                self.on_established(self)
            # The ACK completing the handshake may carry data.
            if segment.payload or segment.flags & FIN:
                self._handle_established(segment)

    def _handle_established(self, segment: TCPSegment) -> None:
        if segment.flags & ACK:
            self._ack_retx_queue(segment.ack)
        self._absorb_payload(segment)
        if segment.flags & FIN and segment.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
            self.state = ConnState.CLOSE_WAIT
            self._emit(ACK, b"")
            if self.on_close is not None:
                self.on_close(self, "peer-fin")

    def _handle_fin_wait_1(self, segment: TCPSegment) -> None:
        if segment.flags & ACK:
            self._ack_retx_queue(segment.ack)
            if not self._retx_queue:
                self.state = ConnState.FIN_WAIT_2
        self._handle_fin_wait_2(segment)

    def _handle_fin_wait_2(self, segment: TCPSegment) -> None:
        self._absorb_payload(segment)
        if segment.flags & FIN and segment.seq == self.rcv_nxt:
            self.rcv_nxt = (self.rcv_nxt + 1) & 0xFFFFFFFF
            self._emit(ACK, b"")
            self._enter_time_wait()

    def _handle_close_wait(self, segment: TCPSegment) -> None:
        if segment.flags & ACK:
            self._ack_retx_queue(segment.ack)

    def _handle_last_ack(self, segment: TCPSegment) -> None:
        if segment.flags & ACK:
            self._ack_retx_queue(segment.ack)
            if not self._retx_queue:
                self._teardown("closed")

    def _handle_time_wait(self, segment: TCPSegment) -> None:
        # Re-ACK a retransmitted FIN.
        if segment.flags & FIN:
            self._emit(ACK, b"")

    def _absorb_payload(self, segment: TCPSegment) -> None:
        if not segment.payload:
            return
        in_order = segment.seq == self.rcv_nxt
        if in_order:
            self.rcv_nxt = (self.rcv_nxt + len(segment.payload)) & 0xFFFFFFFF
        # ACK every data segment: out of order or duplicate, that re-ACKs
        # what we already have.
        self._emit(ACK, b"")
        if in_order and self.on_data is not None:
            self.on_data(self, segment.payload)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = ConnState.TIME_WAIT
        self._cancel_retx_timer()
        self._scheduler.schedule(1.0, self._time_wait_expired)
        if self.on_close is not None:
            self.on_close(self, "closed")

    def _time_wait_expired(self) -> None:
        if self.state is ConnState.TIME_WAIT:
            self.state = ConnState.CLOSED
            self._cancel_retx_timer()
            self.stack.forget(self)

    def _teardown(self, reason: str) -> None:
        failed = self.state is ConnState.SYN_SENT or reason in (
            "refused",
            "syn-timeout",
            "retx-timeout",
            "reset",
        )
        was_closed_cleanly = reason == "closed"
        self.state = ConnState.FAILED if failed else ConnState.CLOSED
        self._cancel_retx_timer()
        self.stack.forget(self)
        if failed and self.on_failure is not None:
            self.on_failure(self, reason)
        elif was_closed_cleanly and self.on_close is not None:
            self.on_close(self, reason)

    def __repr__(self) -> str:
        return (
            f"TCPConnection({self.local_port} <-> "
            f"{format_addr(self.remote_addr)}:{self.remote_port}, "
            f"{self.state.value}, ecn={self.ecn_active})"
        )


_STATE_HANDLERS = {
    ConnState.SYN_SENT: TCPConnection._handle_syn_sent,
    ConnState.SYN_RCVD: TCPConnection._handle_syn_rcvd,
    ConnState.ESTABLISHED: TCPConnection._handle_established,
    ConnState.FIN_WAIT_1: TCPConnection._handle_fin_wait_1,
    ConnState.FIN_WAIT_2: TCPConnection._handle_fin_wait_2,
    ConnState.CLOSE_WAIT: TCPConnection._handle_close_wait,
    ConnState.LAST_ACK: TCPConnection._handle_last_ack,
    ConnState.TIME_WAIT: TCPConnection._handle_time_wait,
}


@dataclass
class TCPListener:
    """A passive open: accepts connections on a port."""

    port: int
    on_connection: Callable[[TCPConnection], None]
    ecn_policy: ECNServerPolicy = ECNServerPolicy.IGNORE


class TCPStack:
    """Per-host TCP: port demux, listeners, and connection table."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        host.tcp = self
        self.listeners: dict[int, TCPListener] = {}
        self.connections: dict[tuple[int, int, int], TCPConnection] = {}
        self._next_iss = 1_000_000
        self._next_port = 33000
        self._next_ident = 1

    @property
    def scheduler(self):
        if self.host.network is None:
            raise SocketError(f"host {self.host.hostname!r} is not attached")
        return self.host.network.scheduler

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def listen(
        self,
        port: int,
        on_connection: Callable[[TCPConnection], None],
        ecn_policy: ECNServerPolicy = ECNServerPolicy.IGNORE,
    ) -> TCPListener:
        """Open a listening port."""
        if port in self.listeners:
            raise SocketError(f"TCP port {port} already listening on {self.host.hostname}")
        listener = TCPListener(port=port, on_connection=on_connection, ecn_policy=ecn_policy)
        self.listeners[port] = listener
        return listener

    def connect(
        self,
        remote_addr: int,
        remote_port: int,
        use_ecn: bool = False,
    ) -> TCPConnection:
        """Open an active connection: send its (possibly ECN-setup) SYN.
        Replies arrive as later events, so callbacks set on return are in time."""
        local_port = self._allocate_port()
        conn = TCPConnection(
            stack=self,
            local_port=local_port,
            remote_addr=remote_addr,
            remote_port=remote_port,
            iss=self._allocate_iss(),
            use_ecn=use_ecn,
        )
        self.connections[conn.key] = conn
        conn.state = ConnState.SYN_SENT
        conn._send_and_track(SYN | ECE | CWR if use_ecn else SYN, b"", syn_or_fin=True)
        return conn

    def _allocate_port(self) -> int:
        for _ in range(30000):
            candidate = self._next_port
            self._next_port += 1
            if self._next_port > 60999:
                self._next_port = 33000
            if all(key[0] != candidate for key in self.connections):
                return candidate
        raise SocketError("no ephemeral TCP ports left")

    def _allocate_iss(self) -> int:
        self._next_iss = (self._next_iss + 64000) & 0xFFFFFFFF
        return self._next_iss

    def forget(self, conn: TCPConnection) -> None:
        """Remove a connection from the demux table."""
        self.connections.pop(conn.key, None)

    def reset_ephemeral_state(self) -> None:
        """Return port/ISS/ident counters to their built state.

        Measurement-epoch boundary support: with these counters (and
        any lingering demux entries) reset, the stack issues the exact
        same ports and sequence numbers as a freshly constructed one,
        which the hermetic shard-replay contract relies on.  Listeners
        are configuration and survive the reset.
        """
        self.connections.clear()
        self._next_iss = 1_000_000
        self._next_port = 33000
        self._next_ident = 1

    # ------------------------------------------------------------------
    # IP interface
    # ------------------------------------------------------------------
    def transmit(self, dst: int, segment: TCPSegment, ecn_mark: ECN) -> None:
        """Send a segment in an IP packet that carries it unencoded (TOS: DSCP 0)."""
        self._next_ident = ident = (self._next_ident + 1) & 0xFFFF
        packet = TransportPacket(
            self.host.addr, dst, PROTO_TCP, segment, DEFAULT_TTL, int(ecn_mark), ident
        )
        self.host.send_ip(packet)

    def deliver(self, packet: IPv4Packet, now: float) -> None:
        """Demux an arriving TCP/IP packet."""
        if packet.__class__ is TransportPacket:
            segment = packet.body
        else:
            try:
                segment = TCPSegment.decode(packet.payload)
            except CodecError:
                return
        key = (segment.dst_port, packet.src, segment.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.handle_segment(segment, packet)
            return
        if segment.is_syn:
            self._handle_passive_open(segment, packet)
            return
        if not (segment.flags & RST):
            self._send_rst(segment, packet)

    def _handle_passive_open(self, segment: TCPSegment, packet: IPv4Packet) -> None:
        listener = self.listeners.get(segment.dst_port)
        if listener is None:
            self._send_rst(segment, packet)
            return
        policy = listener.ecn_policy
        ecn_requested = segment.is_ecn_setup_syn
        if ecn_requested and policy is ECNServerPolicy.DROP_ECN_SYN:
            return  # pathological server: pretend the SYN never arrived
        conn = TCPConnection(
            stack=self,
            local_port=segment.dst_port,
            remote_addr=packet.src,
            remote_port=segment.src_port,
            iss=self._allocate_iss(),
        )
        conn.peer_syn_flags = segment.flags
        conn.rcv_nxt = (segment.seq + 1) & 0xFFFFFFFF
        conn.state = ConnState.SYN_RCVD
        self.connections[conn.key] = conn
        listener.on_connection(conn)
        synack = SYN | ACK
        if ecn_requested and policy is ECNServerPolicy.NEGOTIATE:
            synack |= ECE
            conn.ecn_active = True
        elif ecn_requested and policy is ECNServerPolicy.REFLECT:
            synack |= ECE | CWR
        conn._send_and_track(synack, b"", syn_or_fin=True)

    def _send_rst(self, segment: TCPSegment, packet: IPv4Packet) -> None:
        seg_len = len(segment.payload) + (1 if segment.flags & (SYN | FIN) else 0)
        rst = TCPSegment(
            segment.dst_port, segment.src_port, segment.ack, segment.seq + seg_len, RST | ACK
        )
        self.transmit(packet.src, rst, ECN.NOT_ECT)
