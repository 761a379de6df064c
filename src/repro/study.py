"""One-object façade over the whole reproduction pipeline.

:class:`Study` wires together the synthetic Internet, discovery, the
measurement application, both campaigns, and every analysis, so that
downstream code gets the paper in three lines::

    from repro.study import Study

    study = Study.run(scale=0.1, seed=7)
    print(study.report())

A study can be archived with :meth:`save` and re-hydrated with
:meth:`load` (the world is rebuilt deterministically from the saved
manifest, exactly as the ``ecnudp report`` command does).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core.analysis.correlation import CorrelationTable, analyze_correlation
from .core.analysis.differential import DifferentialAnalysis
from .core.analysis.geographic import GeographicDistribution, analyze_geography
from .core.analysis.pathanalysis import PathAnalysis, analyze_campaign
from .core.analysis.quic_ecn import QUICECNSummary, analyze_quic_ecn
from .core.analysis.reachability import ReachabilitySummary, analyze_reachability
# The perf ledger names ``repro.study.analyze_regional`` among its
# analysis targets (benchmarks/ledger/layers.py), so the name stays
# importable here although no Study view calls it.
from .core.analysis.regional import analyze_regional  # noqa: F401
from .core.analysis.tcp_ecn import TCPECNSummary, analyze_tcp_ecn
from .core.analysis.uncertainty import HeadlineIntervals, headline_intervals
from .core.analysis.validation import InferenceQuality, validate_study
from .core.discovery import PoolDiscovery
from .core.traces import TraceSet, TracerouteCampaign
from .ioutil import atomic_write_text
from .obs import (
    EventLog,
    PathTracer,
    RunTelemetry,
    canonical_events,
    chrome_trace_events,
    export_chrome_trace,
    parse_events_jsonl,
    render_events_jsonl,
)
from .reporting.export import (
    export_figure_data,
    export_metrics_json,
    export_spans_json,
    export_summary_json,
    export_telemetry_json,
    export_traces_csv,
)
from .reporting.report import full_report
from .scenario.internet import SyntheticInternet
from .scenario.timeline import EpochDrift
from .spec import DEFAULT_SCALE, DEFAULT_SEED, StudySpec, ValidationError


@dataclass
class Study:
    """A completed measurement study plus lazily computed analyses."""

    world: SyntheticInternet
    traces: TraceSet
    campaign: TracerouteCampaign
    #: The spec the study ran, its chaos profile expanded into the
    #: :class:`~repro.faults.FaultPlan` it generated (``None`` when the
    #: plan scheduled nothing).
    spec: StudySpec
    #: Merged metric snapshot when the study ran with observation on
    #: (``None`` otherwise — archival output stays byte-identical).
    metrics: dict | None = None
    #: Run telemetry (shard timing, retries) when observation was on.
    telemetry: RunTelemetry | None = None
    #: The packet tracer used during the run, if any.
    tracer: PathTracer | None = None
    #: The span list (study root first) when recording was on;
    #: canonically identical for any worker count.
    spans: list | None = None
    #: The event stream when recording was on, ordered by
    #: ``(shard, seq)``; byte-identical for any worker count.
    events: list | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def run(
        cls,
        scale: float = DEFAULT_SCALE,
        seed: int = DEFAULT_SEED,
        discover: bool = True,
        traceroutes: bool = True,
        workers: int = 0,
        progress=None,
        collect_metrics: bool = False,
        trace_filter: str | None = None,
        faults=None,
        chaos_seed: int = 0,
        record: str | None = None,
        event_log=None,
        obs_dir: str | Path | None = None,
        profile: bool = False,
        world: SyntheticInternet | None = None,
        targets: list[int] | None = None,
        pool=None,
        quic: bool = False,
        drift: EpochDrift | None = None,
    ) -> "Study":
        """Execute the full §3 methodology at the given scale.

        ``scale``, ``seed``, ``traceroutes``, ``quic``, ``faults``,
        ``chaos_seed`` and ``drift`` are the fields of
        :class:`~repro.spec.StudySpec` — what decides the archive — and
        are validated as one; a caller holding a spec runs it with
        ``Study.run(**vars(spec), ...)``.  Every other argument changes
        how the study runs, never what it archives.

        Every study runs as shards through
        :func:`repro.runner.run_study_parallel`: ``workers=0`` (the
        default) runs them one after another in this process, on this
        study's world; ``workers=N`` spreads them across ``N`` worker
        processes.  The results are bit-identical — hermetic
        measurement epochs make every trace a pure function of
        ``(params, trace id)``.  Progress is reported per shard.

        ``collect_metrics=True`` turns the :mod:`repro.obs` layer on
        for the measurement phase (never discovery, which runs once in
        the parent either way): each shard counts into a fresh
        registry, and :attr:`metrics` is their merge.
        ``trace_filter`` installs a :class:`~repro.obs.PathTracer` for
        matching packets; tracing records per-packet event streams
        that have no wire encoding, so it requires ``workers=0``.

        ``faults`` turns on the chaos layer (:mod:`repro.faults`): pass
        a chaos-profile name (``"light"`` / ``"default"`` / ``"heavy"``
        / ``"reroute"``) or a ready-made
        :class:`~repro.faults.FaultPlan`.  A named profile is expanded
        into a plan with :func:`~repro.faults.generate_fault_plan`
        seeded by ``chaos_seed``; either way the plan is a pure value,
        so chaotic runs stay bit-identical for any ``workers`` value.

        ``world`` reuses an existing synthetic Internet instead of
        building one — it must be a fault-free world built from the
        spec's parameters (:meth:`~repro.spec.StudySpec.build_world`),
        and it is left fault-free.  Hermetic measurement epochs make
        worlds reusable across studies: a rerun against a cached
        world is bit-identical to one against a fresh build, **provided
        discovery is not rerun** (DNS pool rotation is stateful, so a
        second discovery sees a different rotation).  Callers reusing a
        world must therefore also pass ``targets`` captured from the
        first run's discovery; the study server caches the pair.
        ``pool`` runs a sharded study's shards on a shared
        :class:`~repro.runner.SharedWorkerPool` rather than an owned
        per-study executor (requires ``workers > 0``).

        ``record`` turns on the study's :class:`~repro.obs.EventLog`
        at a span detail level — ``"epoch"`` (study, shard, trace and
        sweep spans) or ``"probe"`` (plus per-server probes and their
        protocol phases).  Its two views land on :attr:`events` (epoch
        starts and chaos installations, ordered by ``(shard, seq)``)
        and :attr:`spans` (the hierarchical timeline, root first); both
        are identical for any ``workers`` value once wall clocks are
        stripped, and :meth:`save` exports them as ``events.jsonl``,
        ``spans.json`` and ``trace.json``.  ``event_log`` is a caller's
        live :class:`~repro.obs.EventLog` (the study server's,
        typically) that an unrecorded run narrates shard lifecycle
        into — dispatch, retries, gang recoveries; a recorded run
        narrates into its own log instead.  Neither narration joins
        the determinism contract.  ``obs_dir`` arms crash flight dumps
        (``flight-*.json`` on a shard crash or runner recovery) and
        receives one ``profile-shard-<id>.pstats`` profile dump per
        shard when ``profile`` is on.

        ``quic=True`` adds the fourth probe family: a QUIC-like
        connection per server performing RFC 9000 §13.4 ECN count
        validation after the paper's four measurements (see
        :attr:`quic_ecn` for the resulting analysis).  The probe runs
        after the legacy phases inside each epoch, so studies with
        ``quic=False`` remain byte-identical to pre-QUIC archives.

        ``drift`` builds the world from longitudinally drifted
        parameters (:mod:`repro.scenario.timeline`) — what one epoch
        of a campaign (:mod:`repro.campaign`) runs.  The drift is
        recorded in the archive manifest and rides into shard workers,
        so drifted runs stay bit-identical for any ``workers`` value
        and :meth:`load` rebuilds the same drifted world.
        """
        from .runner import run_study_parallel

        spec = StudySpec(
            scale=scale,
            seed=seed,
            traceroutes=traceroutes,
            quic=quic,
            faults=faults,
            chaos_seed=chaos_seed,
            drift=drift,
        )
        if profile and obs_dir is None:
            raise ValueError("profile=True needs obs_dir to write profiles into")
        if pool is not None and workers <= 0:
            raise ValueError("pool= requires workers > 0 (sharded execution)")
        if trace_filter is not None and workers > 0:
            raise ValueError(
                "packet tracing is sequential-only: trace_filter requires "
                "workers=0 (per-packet event streams are not shipped back "
                "from shard workers)"
            )
        if world is None:
            world = spec.build_world()
        spec = spec.with_fault_plan(world)
        if targets is None and discover:
            report = PoolDiscovery(
                world.vantage_hosts["ugla-wired"],
                world.dns_addr,
                world.pool.zone_names(),
            ).run()
            targets = report.addresses
        telemetry = RunTelemetry() if collect_metrics else None
        if record is not None:
            event_log = EventLog(stamp_wall=False, detail=record)
        tracer = None
        if trace_filter is not None:
            # The inline shards run on this world, so the tracer sees them.
            tracer = PathTracer(match=trace_filter)
            world.network.set_tracer(tracer)
        try:
            traces, campaign = run_study_parallel(
                spec,
                workers=workers,
                targets=targets,
                world=world,
                progress=progress,
                telemetry=telemetry,
                record=record,
                event_log=event_log,
                flight_dir=obs_dir,
                profile_dir=obs_dir if profile else None,
                pool=pool,
            )
        finally:
            if tracer is not None:
                world.network.set_tracer(None)
        return cls(
            world=world,
            traces=traces,
            campaign=campaign,
            spec=spec,
            metrics=telemetry.metrics if telemetry is not None else None,
            telemetry=telemetry,
            tracer=tracer,
            spans=event_log.spans() if record is not None else None,
            events=event_log.events() if record is not None else None,
        )

    # ------------------------------------------------------------------
    # Analyses (cached)
    # ------------------------------------------------------------------
    def _cached(self, key: str, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def geography(self) -> GeographicDistribution:
        return self._cached(
            "geo", lambda: analyze_geography(self.traces.server_addrs, self.world.geo)
        )

    @property
    def reachability(self) -> ReachabilitySummary:
        return self._cached("reach", lambda: analyze_reachability(self.traces))

    @property
    def tcp_ecn(self) -> TCPECNSummary:
        return self._cached("tcp", lambda: analyze_tcp_ecn(self.traces))

    @property
    def differential_plain_only(self) -> DifferentialAnalysis:
        return self._cached(
            "diff_a", lambda: DifferentialAnalysis(self.traces, "plain-only")
        )

    @property
    def differential_ect_only(self) -> DifferentialAnalysis:
        return self._cached(
            "diff_b", lambda: DifferentialAnalysis(self.traces, "ect-only")
        )

    @property
    def paths(self) -> PathAnalysis:
        return self._cached(
            "paths", lambda: analyze_campaign(self.campaign, self.world.noisy_as_map)
        )

    @property
    def correlation(self) -> CorrelationTable:
        return self._cached("corr", lambda: analyze_correlation(self.traces))

    @property
    def quic_ecn(self) -> QUICECNSummary:
        """QUIC §13.4 validation outcomes vs raw-UDP reachability.

        Empty (``total == 0``) when the study ran without the QUIC
        probe family; report/save skip the section then, keeping
        legacy artefacts byte-identical.
        """
        return self._cached("quic", lambda: analyze_quic_ecn(self.traces))

    def intervals(self) -> HeadlineIntervals:
        """Bootstrap 95 % CIs for the headline numbers."""
        return headline_intervals(self.traces)

    def validate(self) -> list[InferenceQuality]:
        """Score the §4 inference rules against deployed ground truth."""
        return validate_study(self.world, self.traces, self.campaign)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Every table and figure, as text, in the paper's order."""
        quic = self.quic_ecn
        return full_report(
            self.geography,
            self.reachability,
            self.differential_plain_only,
            self.differential_ect_only,
            self.tcp_ecn,
            self.campaign,
            self.paths,
            self.correlation,
            quic=quic if quic.total else None,
        )

    def save(self, directory: str | Path) -> Path:
        """Archive the study (manifest + datasets + summary + CSVs).

        Every artefact is written atomically (temp file +
        ``os.replace``), so a concurrent reader — the study server
        streams archives while sibling studies are still saving — can
        never observe a partially written file.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        spec = self.spec
        manifest: dict = {"scale": spec.scale, "seed": spec.seed}
        if spec.drift is not None:
            # Drifted worlds cannot be rebuilt from (scale, seed)
            # alone; the manifest carries the drift so load() and
            # `ecnudp report` re-derive the identical world.  Absent
            # for undrifted runs, keeping legacy archives byte-stable.
            manifest["drift"] = spec.drift.to_dict()
        if spec.plan is not None:
            # Record that the archived data came from a chaotic run —
            # load() rebuilds a pristine world, so ground-truth
            # comparisons against these traces need this caveat.
            manifest["chaos"] = spec.plan.summary()
        atomic_write_text(directory / "manifest.json", json.dumps(manifest))
        self.traces.save(directory / "traces.json")
        self.campaign.save(directory / "traceroutes.json")
        quic = self.quic_ecn
        export_summary_json(
            directory / "summary.json",
            self.geography,
            self.reachability,
            self.tcp_ecn,
            self.paths,
            self.correlation,
            quic=quic if quic.total else None,
        )
        export_traces_csv(directory / "traces.csv", self.traces)
        # Observability artefacts are written only when observation was
        # on: a study run with metrics disabled archives byte-identical
        # output to one from a build without the obs layer at all.
        if self.metrics is not None:
            export_metrics_json(directory / "metrics.json", self.metrics)
        if self.telemetry is not None:
            export_telemetry_json(directory / "telemetry.json", self.telemetry)
        if self.spans is not None:
            export_spans_json(directory / "spans.json", self.spans)
            export_chrome_trace(self.spans, directory / "trace.json")
        if self.events is not None:
            # Canonical form (wall stripped, (shard, seq) order), so a
            # sharded study's events.jsonl is byte-identical to the
            # sequential one's.
            atomic_write_text(
                directory / "events.jsonl",
                render_events_jsonl(canonical_events(self.events)),
            )
        export_figure_data(
            directory / "figures",
            self.reachability,
            self.tcp_ecn,
            self.differential_plain_only,
            self.differential_ect_only,
            self.tcp_ecn.pct_negotiated,
        )
        atomic_write_text(directory / "report.txt", self.report() + "\n")
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "Study":
        """Re-hydrate a saved study (world rebuilt from the manifest).

        The manifest is validated as a :class:`~repro.spec.StudySpec`,
        so a corrupt one raises :class:`~repro.spec.ValidationError` —
        as do a malformed ``traces.json`` or ``traceroutes.json``, and a
        malformed ``spans.json`` or ``events.jsonl``, which load back
        onto :attr:`spans` and :attr:`events` so a re-save reproduces
        them.  The world is rebuilt fault-free: chaos is a property of
        the run, not the world.  A named chaos profile's plan is a pure
        function of ``(world, profile, seed)``, so the manifest's
        ``chaos`` audit record rebuilds it onto :attr:`spec`; a
        hand-built plan's record is dropped.
        """
        directory = Path(directory)
        manifest = _load_file(
            lambda path: json.loads(path.read_text()), directory / "manifest.json"
        )
        if isinstance(manifest, dict):
            from .faults.profiles import PROFILES

            chaos = manifest.pop("chaos", None)
            profile = chaos.get("profile") if isinstance(chaos, dict) else None
            if isinstance(profile, str) and profile in PROFILES:
                manifest.update(chaos=profile, chaos_seed=chaos.get("chaos_seed", 0))
        spec = StudySpec.from_json(manifest)
        spans = events = None
        if (directory / "spans.json").exists():
            spans = _load_spans(directory / "spans.json")
        if (directory / "events.jsonl").exists():
            try:
                events = parse_events_jsonl((directory / "events.jsonl").read_text())
                canonical_events(events)  # what save() writes must be orderable
            except (ValueError, TypeError) as exc:
                raise ValidationError(f"events.jsonl: {exc}") from None
        traces = _load_file(TraceSet.load, directory / "traces.json")
        campaign = _load_file(TracerouteCampaign.load, directory / "traceroutes.json")
        world = spec.build_world()
        return cls(
            world=world,
            traces=traces,
            campaign=campaign,
            spec=spec.with_fault_plan(world),
            spans=spans,
            events=events,
        )


def _load_file(load, path: Path):
    """``load(path)``; a malformed file raises
    :class:`~repro.spec.ValidationError`."""
    try:
        return load(path)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path.name}: {exc}") from None


def _load_spans(path: Path) -> list:
    """A saved span list; a document the trace view cannot render
    raises :class:`~repro.spec.ValidationError`."""
    try:
        document = json.loads(path.read_text())
        if not isinstance(document, dict) or document.get("format") != "ecn-udp-spans/1":
            raise ValueError("not an ecn-udp-spans/1 document")
        spans = document.get("spans")
        if not isinstance(spans, list):
            raise ValueError("no 'spans' list")
        chrome_trace_events(spans)
    except (ValueError, RecursionError, TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(f"spans.json: {exc!s}") from None
    return spans
