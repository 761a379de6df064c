"""RTP media sessions with ECN over the simulated network.

Implements the deployment model §2 of the paper describes for ECN with
UDP: "an initial ECN capability negotiation phase while the
communication session is being set-up, before ECT-marked UDP packets
are sent".  Concretely (after RFC 6679):

1. the sender starts in a **probing** phase, sending media ECT(0)-marked;
2. the first feedback report decides: if ECT-marked packets arrived
   (``ect_delivered > 0``) ECN is **validated** and marking continues;
   if packets arrived but all bleached to not-ECT, or nothing arrived
   while a not-ECT probe would get through, the sender **falls back**
   to not-ECT marking — the failure the paper's reachability study
   quantifies;
3. thereafter, feedback deltas (loss / CE-mark ratios) drive the
   NADA-style controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netsim.ecn import ECN
from ...netsim.errors import CodecError
from ...netsim.host import Host
from ...netsim.ipv4 import IPv4Packet
from ...netsim.udp import UDPDatagram
from .nada import NADAController
from .packet import ECNFeedback, RTPPacket

#: RTP payload type used for the synthetic media stream.
MEDIA_PAYLOAD_TYPE = 96
#: RTP clock rate used for timestamps (8 kHz, telephony-style).
RTP_CLOCK_HZ = 8000
#: Media payload per packet (one 20 ms G.711-sized frame) and the
#: sender's SSRC.
PACKET_BYTES = 160
SENDER_SSRC = 0x5353_5243
#: Seconds between the receiver's ECN feedback reports.
FEEDBACK_INTERVAL = 0.1
#: Seconds the sender waits for feedback validating ECN before it
#: falls back to not-ECT.
VALIDATION_TIMEOUT = 0.5

ECN_PROBING = "probing"
ECN_ACTIVE = "active"
ECN_DISABLED = "disabled"


class RTPReceiver:
    """Receives media, counts ECN codepoints, returns feedback."""

    def __init__(
        self,
        host: Host,
        port: int,
    ) -> None:
        self.host = host
        self.socket = host.udp_bind(port, self._on_packet)
        self.counts = {ECN.NOT_ECT: 0, ECN.ECT_0: 0, ECN.ECT_1: 0, ECN.CE: 0}
        self.highest_seq: int | None = None
        self.received = 0
        self.media_bytes = 0
        self._report_seq = 0
        self._sender: tuple[int, int] | None = None
        self._ssrc = 0
        self._timer = None

    def _on_packet(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        try:
            rtp = RTPPacket.decode(datagram.payload)
        except CodecError:
            return
        if self._sender is None:
            self._sender = (packet.src, datagram.src_port)
            self._ssrc = rtp.ssrc
            self._schedule_feedback()
        self.received += 1
        self.media_bytes += len(rtp.payload)
        self.counts[packet.ecn] += 1
        if self.highest_seq is None or _seq_newer(rtp.sequence, self.highest_seq):
            self.highest_seq = rtp.sequence

    def _schedule_feedback(self) -> None:
        self._timer = self.host.network.scheduler.schedule(
            FEEDBACK_INTERVAL, self._send_feedback
        )

    def _send_feedback(self) -> None:
        if self._sender is None:
            return
        self._report_seq += 1
        expected = (self.highest_seq or 0) + 1
        feedback = ECNFeedback(
            ssrc=self._ssrc,
            ect0=self.counts[ECN.ECT_0],
            ect1=self.counts[ECN.ECT_1],
            ce=self.counts[ECN.CE],
            not_ect=self.counts[ECN.NOT_ECT],
            lost=max(0, expected - self.received),
            highest_seq=self.highest_seq or 0,
            report_seq=self._report_seq,
        )
        addr, port = self._sender
        self.socket.send(addr, port, feedback.encode(), ecn=ECN.NOT_ECT)
        self._schedule_feedback()

    def stop(self) -> None:
        """Stop feedback and release the port."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.socket.close()


@dataclass
class SenderStats:
    """What the sender knows at the end of a session."""

    sent: int = 0
    ect_sent: int = 0
    feedback_received: int = 0
    ecn_state: str = ECN_PROBING
    final_rate: float = 0.0
    observed_loss: int = 0
    observed_ce: int = 0
    rate_history: list[float] = field(default_factory=list)


class RTPSender:
    """Paced media sender with RFC 6679-style ECN validation."""

    def __init__(
        self,
        host: Host,
        dst_addr: int,
        dst_port: int,
        controller: NADAController | None = None,
    ) -> None:
        self.host = host
        self.dst_addr = dst_addr
        self.dst_port = dst_port
        self.controller = controller if controller is not None else NADAController()
        self.socket = host.udp_bind(None, self._on_datagram)
        self.ecn_state = ECN_PROBING
        self.stats = SenderStats()
        self._sequence = 0
        self._last_feedback: ECNFeedback | None = None
        self._send_timer = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Media transmission
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin paced sending (call once; then run the scheduler)."""
        # If ECT-marked probing media is blackholed the receiver never
        # learns our address and no feedback can arrive, so validation
        # must also fail closed on a sender-side timer (RFC 6679 §7.2's
        # "fail to negotiate" path).
        self.host.network.scheduler.schedule(
            VALIDATION_TIMEOUT, self._on_validation_timeout
        )
        self._send_next()

    def _on_validation_timeout(self) -> None:
        if not self._stopped and self.ecn_state == ECN_PROBING:
            self.ecn_state = ECN_DISABLED

    def stop(self) -> None:
        self._stopped = True
        if self._send_timer is not None:
            self._send_timer.cancel()
            self._send_timer = None
        self.stats.ecn_state = self.ecn_state
        self.stats.final_rate = self.controller.rate
        self.socket.close()

    def _send_next(self) -> None:
        if self._stopped:
            return
        clock = self.host.network.scheduler.clock
        mark = ECN.ECT_0 if self.ecn_state in (ECN_PROBING, ECN_ACTIVE) else ECN.NOT_ECT
        rtp = RTPPacket(
            payload_type=MEDIA_PAYLOAD_TYPE,
            sequence=self._sequence & 0xFFFF,
            timestamp=int(clock.now * RTP_CLOCK_HZ),
            ssrc=SENDER_SSRC,
            payload=bytes(PACKET_BYTES),
        )
        self._sequence += 1
        self.stats.sent += 1
        if mark is ECN.ECT_0:
            self.stats.ect_sent += 1
        self.socket.send(self.dst_addr, self.dst_port, rtp.encode(), ecn=mark)
        gap = (PACKET_BYTES + 40) * 8 / self.controller.rate
        self._send_timer = self.host.network.scheduler.schedule(gap, self._send_next)

    # ------------------------------------------------------------------
    # Feedback processing
    # ------------------------------------------------------------------
    def _on_datagram(self, datagram: UDPDatagram, packet: IPv4Packet, now: float) -> None:
        try:
            feedback = ECNFeedback.decode(datagram.payload)
        except CodecError:
            return
        if feedback.ssrc != SENDER_SSRC:
            return
        self.stats.feedback_received += 1
        self._validate_ecn(feedback)
        self._drive_controller(feedback)
        self._last_feedback = feedback

    def _validate_ecn(self, feedback: ECNFeedback) -> None:
        """RFC 6679 initial verification of ECN capability."""
        if self.ecn_state != ECN_PROBING:
            return
        if feedback.ect_delivered > 0:
            self.ecn_state = ECN_ACTIVE
        elif feedback.received_total > 0:
            # Packets arrive but the marks do not: a bleacher on path.
            self.ecn_state = ECN_DISABLED
        elif feedback.report_seq >= 3:
            # Repeated reports with nothing received: ECT-marked media
            # is being dropped; fall back to not-ECT (the paper's
            # firewalled-destination case).
            self.ecn_state = ECN_DISABLED

    def _drive_controller(self, feedback: ECNFeedback) -> None:
        previous = self._last_feedback
        delta_received = feedback.received_total - (
            previous.received_total if previous else 0
        )
        delta_ce = feedback.ce - (previous.ce if previous else 0)
        delta_lost = feedback.lost - (previous.lost if previous else 0)
        delta_lost = max(delta_lost, 0)
        window = max(delta_received + delta_lost, 1)
        loss_ratio = min(delta_lost / window, 1.0)
        mark_ratio = min(max(delta_ce, 0) / window, 1.0)
        self.stats.observed_loss += delta_lost
        self.stats.observed_ce += max(delta_ce, 0)
        self.controller.update(0.0, loss_ratio, mark_ratio)
        self.stats.rate_history.append(self.controller.rate)


def run_media_session(
    sender_host: Host,
    receiver_host: Host,
    receiver_port: int,
    duration: float,
    controller: NADAController | None = None,
) -> tuple[SenderStats, RTPReceiver]:
    """Run a one-way media session for ``duration`` simulated seconds."""
    receiver = RTPReceiver(receiver_host, receiver_port)
    sender = RTPSender(sender_host, receiver_host.addr, receiver_port, controller)
    scheduler = sender_host.network.scheduler
    sender.start()
    scheduler.run_until(scheduler.now + duration)
    sender.stop()
    receiver.stop()
    scheduler.run()
    return sender.stats, receiver


def _seq_newer(candidate: int, reference: int) -> bool:
    """RFC 3550 16-bit sequence comparison with wraparound."""
    return ((candidate - reference) & 0xFFFF) < 0x8000 and candidate != reference
