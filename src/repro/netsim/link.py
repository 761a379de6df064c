"""Unidirectional links between routers.

A link contributes propagation delay (plus optional jitter), a loss
model, and an AQM behaviour.  Links are unidirectional so asymmetric
paths — and asymmetric impairments, such as a congested upstream on a
home ADSL line — can be modelled; :func:`link_pair` builds the common
symmetric case.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from .ecn import DSCP_MASK, ECN, ECT_CAPABLE
from .ipv4 import IPv4Packet
from .queues import (
    AQMDecision,
    AQMModel,
    BernoulliLoss,
    LossModel,
    NoCongestion,
    NoLoss,
    StaticCongestion,
)


@dataclass
class Link:
    """A unidirectional link from ``src`` router to ``dst`` router.

    ``delay`` is the one-way propagation delay in seconds; ``jitter``
    adds a uniform random component in ``[0, jitter]``.  ``loss`` and
    ``aqm`` supply the impairment behaviour; both default to clean.
    """

    src: str
    dst: str
    delay: float = 0.005
    jitter: float = 0.0
    loss: LossModel = field(default_factory=NoLoss)
    aqm: AQMModel = field(default_factory=NoCongestion)
    #: Routing metric: routes minimise the summed weight, so the default
    #: makes them hop-count shortest paths.
    weight: float = 1.0
    #: Windowed impairment installed by :mod:`repro.faults` (a
    #: :class:`~repro.faults.windows.LinkFault`); ``None`` in normal
    #: operation, so an unfaulted link pays one attribute check.
    fault: object | None = field(default=None, compare=False, repr=False)

    def _transit(
        self,
        packet: IPv4Packet,
        rng: random.Random,
        metrics,
        tracer,
    ) -> tuple[bool, float, str]:
        """Allocation-free transit core: ``(delivered, delay, reason)``.

        The dominant links in a study are clean (no fault, uncongested
        queue, no or Bernoulli loss), so those samplers are inlined —
        drawing from ``rng`` in exactly the order and count the model
        objects themselves would — and the per-hop cost is a handful of
        attribute reads instead of three method calls.

        Order matches a real egress interface: the AQM inspects the
        packet as it is enqueued (possibly dropping or CE-marking it),
        then the wire may lose it.  A CE mark rewrites only the ECN
        bits, preserving DSCP (RFC 3168), in place on the
        simulator-owned packet.  ``metrics`` / ``tracer`` are the
        :mod:`repro.obs` hooks, falsey when disabled, and never draw
        from ``rng``.
        """
        delay = self.delay
        jitter = self.jitter
        if jitter > 0:
            delay += rng.random() * jitter
        if tracer:
            return self._transit_traced(packet, rng, metrics, tracer, delay)
        fault = self.fault
        if fault is not None and fault.active():
            # A flapping physical layer loses (or delays) the packet
            # before any queueing discipline sees it.
            delay += fault.extra_delay
            if fault.sample_loss(rng):
                if metrics:
                    metrics.incr("faults.link_flap_drop")
                return False, delay, "fault-flap"
        aqm = self.aqm
        aqm_cls = aqm.__class__
        if aqm_cls is NoCongestion:
            if metrics:
                metrics.incr("queue.pass")
        else:
            if aqm_cls is StaticCongestion:
                sp = aqm.signal_probability
                if sp <= 0 or rng.random() >= sp:
                    decision = AQMDecision.PASS
                elif ECT_CAPABLE[packet.tos & 3] and aqm.ecn_capable_queue:
                    decision = AQMDecision.MARK
                else:
                    decision = AQMDecision.DROP
            else:
                decision = aqm.sample(rng, ECT_CAPABLE[packet.tos & 3])
            if metrics:
                metrics.incr("queue." + decision)
            if decision == AQMDecision.DROP:
                return False, delay, "aqm-drop"
            if decision == AQMDecision.MARK:
                packet.tos = (packet.tos & DSCP_MASK) | 3
        loss = self.loss
        loss_cls = loss.__class__
        if loss_cls is NoLoss:
            return True, delay, ""
        if loss_cls is BernoulliLoss:
            p = loss.probability
            if p > 0 and rng.random() < p:
                if metrics:
                    metrics.incr("link.loss")
                return False, delay, "loss"
            return True, delay, ""
        if loss.sample_loss(rng):
            if metrics:
                metrics.incr("link.loss")
            return False, delay, "loss"
        return True, delay, ""

    def _transit_traced(
        self,
        packet: IPv4Packet,
        rng: random.Random,
        metrics,
        tracer,
        delay: float,
    ) -> tuple[bool, float, str]:
        """Transit with a live packet tracer (jitter already sampled)."""
        traced = tracer.wants(packet)
        hop = f"{self.src}->{self.dst}" if traced else ""
        fault = self.fault
        if fault is not None and fault.active():
            delay += fault.extra_delay
            if fault.sample_loss(rng):
                if metrics:
                    metrics.incr("faults.link_flap_drop")
                if traced:
                    tracer.record(packet, hop, "fault-flap", packet.ecn, packet.ecn)
                return False, delay, "fault-flap"
        decision = self.aqm.sample(rng, ECT_CAPABLE[packet.tos & 3])
        if metrics:
            metrics.incr("queue." + decision)
        if decision == AQMDecision.DROP:
            if traced:
                tracer.record(packet, hop, "aqm-drop", packet.ecn, packet.ecn)
            return False, delay, "aqm-drop"
        if decision == AQMDecision.MARK:
            before = packet.ecn
            packet.set_ecn(ECN.CE)
            if traced:
                tracer.record(packet, hop, "aqm-mark", before, packet.ecn)
        if self.loss.sample_loss(rng):
            if metrics:
                metrics.incr("link.loss")
            if traced:
                tracer.record(packet, hop, "loss", packet.ecn, packet.ecn)
            return False, delay, "loss"
        return True, delay, ""

    def __repr__(self) -> str:
        return f"Link({self.src} -> {self.dst}, delay={self.delay * 1000:.1f}ms)"


def link_pair(
    a: str,
    b: str,
    delay: float = 0.005,
    jitter: float = 0.0,
    loss: LossModel | None = None,
) -> tuple[Link, Link]:
    """Build the two directions of a symmetric link.

    Each direction gets its own copy of ``loss`` (stateful models must
    not share state across directions).
    """
    forward = Link(
        a, b, delay=delay, jitter=jitter, loss=loss if loss is not None else NoLoss()
    )
    reverse_loss = copy.deepcopy(loss) if loss is not None else NoLoss()
    backward = Link(b, a, delay=delay, jitter=jitter, loss=reverse_loss)
    return forward, backward
