"""The measurement application: traces and traceroute campaigns.

This orchestrates everything §3 describes: for each of the discovered
servers in turn, probe UDP reachability with not-ECT and ECT(0) marked
packets, then HTTP over TCP without and with ECN negotiation — that is
one *trace*.  The full study runs 210 traces across the 13 vantage
points in two batches (April/May: author homes and the Glasgow
wireless; July/August: everywhere), with pool churn in between.  A
separate campaign runs ECT(0) traceroutes from every vantage to every
server (§4.2).

:class:`MeasurementApplication` runs the two shard bodies —
:meth:`~MeasurementApplication.run_planned` for a slice of the trace
plan and :meth:`~MeasurementApplication.run_traceroute_vantage` for one
vantage's sweep; :mod:`repro.runner` plans, executes and merges them
into a study (:meth:`repro.study.Study.run`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Sequence

from ..netsim.ecn import ECN
from ..obs.events import CTX_TRACEROUTES, CTX_TRACES, DETAIL_PROBE
from ..netsim.host import Host
from ..scenario.internet import SyntheticInternet
from ..scenario.parameters import ProbeParams, TraceScheduleParams
from ..scenario.vantages import VANTAGES
from ..protocols.quic.validation import classify_probe
from .probes import probe_quic, probe_tcp, probe_udp, run_traceroute
from .traces import (
    PathTrace,
    ProbeOutcome,
    QUICProbeOutcome,
    Trace,
)

#: Progress callback: (current step, total steps, label).
ProgressFn = Callable[[int, int, str], None]


@dataclass(frozen=True)
class PlannedTrace:
    """One slot in the study schedule."""

    trace_id: int
    vantage_key: str
    batch: int


def trace_plan(schedule: TraceScheduleParams) -> list[PlannedTrace]:
    """Distribute the study's traces over vantages and batches.

    Batch 1 covers only the vantages available early (the homes and
    the Glasgow wireless network, per §3); the remainder is spread
    round-robin over all thirteen vantages, walking them in the
    paper's figure order so every location ends up with a similar
    trace count.
    """
    batch1_vantages = [spec for spec in VANTAGES if spec.in_batch1]
    batch1_total = len(batch1_vantages) * schedule.batch1_traces_per_home_vantage
    # Validate before building anything: a schedule whose batch-1
    # allocation exceeds the study total is a configuration error, not
    # something to discover after constructing a partial plan.
    if schedule.total_traces < 0:
        raise ValueError(f"total_traces must be >= 0: {schedule.total_traces!r}")
    if batch1_total > schedule.total_traces:
        raise ValueError(
            "batch-1 traces exceed the study total: "
            f"{batch1_total} > {schedule.total_traces}"
        )
    plan: list[PlannedTrace] = []
    trace_id = 0
    for spec in batch1_vantages:
        for _ in range(schedule.batch1_traces_per_home_vantage):
            plan.append(PlannedTrace(trace_id, spec.key, batch=1))
            trace_id += 1
    keys = [spec.key for spec in VANTAGES]
    for index in range(schedule.total_traces - batch1_total):
        plan.append(PlannedTrace(trace_id, keys[index % len(keys)], batch=2))
        trace_id += 1
    return plan


class MeasurementApplication:
    """Runs the study against a built synthetic Internet."""

    def __init__(
        self,
        world: SyntheticInternet,
        targets: Sequence[int] | None = None,
        quic: bool = False,
    ) -> None:
        self.world = world
        self.probe_params: ProbeParams = world.params.probes
        #: Run the fourth probe family (QUIC ECN validation) after the
        #: paper's four measurements.  The extra probe runs inside the
        #: same measurement epoch, *after* the legacy phases, so the
        #: legacy packet/RNG sequence — and therefore every archived
        #: study — is untouched.
        self.quic = quic
        #: The probe target list: normally the discovery output; falls
        #: back to ground truth (every deployed server) when the caller
        #: skips the discovery phase.
        self.targets: list[int] = (
            list(targets) if targets is not None else [s.addr for s in world.servers]
        )

    # ------------------------------------------------------------------
    # Single measurements
    # ------------------------------------------------------------------
    def measure_server(self, vantage_host: Host, server_addr: int) -> ProbeOutcome:
        """The four §3 measurements against one server."""
        probe = self.probe_params
        log = self.world.log
        phased = log if log and log.detail == DETAIL_PROBE else None
        metrics = self.world.network.metrics
        # Per-family probe-duration histograms, in *sim-time*: each
        # probe drives the scheduler to completion, so the elapsed sim
        # clock is a pure function of the epoch — shard merges of these
        # histograms are bit-identical for any worker count.
        clock = self.world.network.scheduler

        def observe(name: str, started: float) -> None:
            if metrics:
                metrics.observe(f"app.rtt.{name}", clock.now - started)

        def phase(name: str):
            return phased.span("phase", name) if phased else nullcontext()

        phase_start = clock.now
        with phase("udp-plain"):
            udp_plain = probe_udp(
                vantage_host,
                server_addr,
                ECN.NOT_ECT,
                attempts=probe.ntp_attempts,
                timeout=probe.ntp_timeout,
            )
            if phased:
                phased.annotate(
                    responded=udp_plain.responded, attempts=udp_plain.attempts
                )
        observe("udp_plain", phase_start)
        phase_start = clock.now
        with phase("udp-ect"):
            udp_ect = probe_udp(
                vantage_host,
                server_addr,
                ECN.ECT_0,
                attempts=probe.ntp_attempts,
                timeout=probe.ntp_timeout,
            )
            if phased:
                phased.annotate(responded=udp_ect.responded, attempts=udp_ect.attempts)
        observe("udp_ect", phase_start)
        phase_start = clock.now
        with phase("tcp-plain"):
            tcp_plain = probe_tcp(
                vantage_host, server_addr, use_ecn=False, deadline=probe.http_deadline
            )
            if phased:
                phased.annotate(ok=tcp_plain.ok)
        observe("tcp_plain", phase_start)
        phase_start = clock.now
        with phase("tcp-ecn"):
            tcp_ecn = probe_tcp(
                vantage_host, server_addr, use_ecn=True, deadline=probe.http_deadline
            )
            if phased:
                phased.annotate(ok=tcp_ecn.ok, negotiated=tcp_ecn.ecn_negotiated)
        observe("tcp_ecn", phase_start)
        quic_outcome = None
        if self.quic:
            phase_start = clock.now
            with phase("quic"):
                raw = probe_quic(vantage_host, server_addr, params=probe)
                state = classify_probe(raw)
                quic_outcome = QUICProbeOutcome(
                    state=state,
                    handshake_ok=raw.handshake_ok,
                    handshake_attempts=raw.handshake_attempts,
                    packets_sent=raw.packets_sent,
                    packets_acked=raw.packets_acked,
                    ect0_echoed=raw.ect0_echoed,
                    ect1_echoed=raw.ect1_echoed,
                    ce_echoed=raw.ce_echoed,
                )
                if metrics:
                    metrics.incr(f"app.quic.{state}")
                if phased:
                    phased.annotate(state=state, acked=raw.packets_acked)
            observe(f"quic.{state}", phase_start)
        return ProbeOutcome(
            server_addr=server_addr,
            udp_plain=udp_plain.responded,
            udp_ect=udp_ect.responded,
            udp_plain_attempts=udp_plain.attempts,
            udp_ect_attempts=udp_ect.attempts,
            tcp_plain=tcp_plain.ok,
            tcp_ecn=tcp_ecn.ok,
            ecn_negotiated=tcp_ecn.ecn_negotiated,
            http_status=tcp_plain.response.status if tcp_plain.response else None,
            quic=quic_outcome,
        )

    def run_trace(self, vantage_key: str, trace_id: int, batch: int) -> Trace:
        """One complete trace: every target, four measurements each."""
        vantage_host = self.world.vantage_hosts[vantage_key]
        log = self.world.log
        probe_spans = bool(log) and log.detail == DETAIL_PROBE
        trace = Trace(
            trace_id=trace_id,
            vantage_key=vantage_key,
            batch=batch,
            started_at=self.world.network.scheduler.now,
        )
        for server_addr in self.targets:
            cm = (
                log.span("probe", f"probe-{server_addr}", server=server_addr)
                if probe_spans
                else nullcontext()
            )
            with cm:
                trace.add(self.measure_server(vantage_host, server_addr))
        return trace

    # ------------------------------------------------------------------
    # The full study
    # ------------------------------------------------------------------
    def run_planned(self, planned: Sequence[PlannedTrace]) -> list[Trace]:
        """Execute a slice of the trace schedule hermetically.

        Each planned trace runs in its own measurement epoch (see
        :meth:`~repro.scenario.internet.SyntheticInternet.begin_epoch`),
        keyed by its ``trace_id``, so the result does not depend on
        which — if any — other traces this world executed before.
        :mod:`repro.runner` runs every trace shard through it; the
        determinism contract between shards lives here.
        """
        traces: list[Trace] = []
        log = self.world.log
        for entry in planned:
            if log:
                # Attribute this epoch to the shard owning its
                # (vantage, batch) slice before minting ids, so every
                # execution of the shard mints the same ids.  The
                # epoch-start event goes first, ahead of the fault
                # events begin_epoch installs.
                log.enter_context(CTX_TRACES, entry.vantage_key, entry.batch)
                log.emit(
                    "epoch-start",
                    "debug",
                    epoch=entry.trace_id,
                    vantage=entry.vantage_key,
                    batch=entry.batch,
                )
            self.world.enter_batch(entry.batch)
            self.world.begin_epoch(entry.trace_id)
            metrics = self.world.network.metrics
            if metrics:
                metrics.incr("app.traces_run")
            # The epoch span opens *after* begin_epoch: its sim_start
            # is then exactly the epoch origin, and the fault events
            # recorded during installation attach to it.
            cm = (
                log.span(
                    "trace",
                    f"trace-{entry.trace_id}",
                    trace_id=entry.trace_id,
                    vantage=entry.vantage_key,
                    batch=entry.batch,
                )
                if log
                else nullcontext()
            )
            with cm:
                traces.append(
                    self.run_trace(entry.vantage_key, entry.trace_id, entry.batch)
                )
        return traces

    # ------------------------------------------------------------------
    # Traceroute campaign (§4.2)
    # ------------------------------------------------------------------
    def traceroute_epoch(self, vantage_key: str) -> int:
        """Measurement-epoch index of one vantage's traceroute sweep.

        Epoch indices 0..total_traces-1 belong to the trace schedule;
        traceroute sweeps follow, one per vantage in build order, so
        every epoch in a study has a unique, schedule-independent
        index that every execution agrees on.
        """
        keys = list(self.world.vantage_hosts)
        return self.world.params.schedule.total_traces + keys.index(vantage_key)

    def run_traceroute_vantage(
        self,
        vantage_key: str,
        targets: Sequence[int] | None = None,
        ecn: ECN = ECN.ECT_0,
    ) -> list[PathTrace]:
        """One vantage's hermetic traceroute sweep over all targets.

        Like :meth:`run_planned`, this is what a traceroute shard runs:
        the sweep runs in its own measurement epoch and is a pure
        function of ``(params, vantage, targets)``.
        """
        host = self.world.vantage_hosts[vantage_key]
        dsts = list(targets) if targets is not None else list(self.targets)
        log = self.world.log
        if log:
            log.enter_context(CTX_TRACEROUTES, vantage_key)
            log.emit(
                "sweep-start",
                "debug",
                epoch=self.traceroute_epoch(vantage_key),
                vantage=vantage_key,
            )
        self.world.begin_epoch(self.traceroute_epoch(vantage_key))
        metrics = self.world.network.metrics
        if metrics:
            metrics.incr("app.traceroute_sweeps")
        probe_spans = bool(log) and log.detail == DETAIL_PROBE
        sweep_cm = (
            log.span("sweep", f"sweep-{vantage_key}", vantage=vantage_key)
            if log
            else nullcontext()
        )
        paths: list[PathTrace] = []
        with sweep_cm:
            for dst in dsts:
                probe_cm = (
                    log.span("probe", f"traceroute-{dst}", server=dst)
                    if probe_spans
                    else nullcontext()
                )
                with probe_cm:
                    path = run_traceroute(host, dst, ecn=ecn, params=self.probe_params)
                # Traceroutes are keyed by vantage key, not hostname;
                # for vantage hosts the two coincide by construction.
                paths.append(
                    PathTrace(
                        vantage_key=vantage_key,
                        dst_addr=path.dst_addr,
                        sent_ecn=path.sent_ecn,
                        hops=path.hops,
                        reached_destination=path.reached_destination,
                    )
                )
        return paths
