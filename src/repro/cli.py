"""Command-line interface: run and report reproduction studies.

Usage (installed as ``ecnudp``, also ``python -m repro``):

* ``ecnudp study --scale 0.1 --seed 7 --out results/`` — build the
  synthetic Internet, discover the pool, run the trace schedule and
  the traceroute campaign, write the dataset and print the report.
* ``ecnudp report --study results/`` — re-analyse a saved study.
* ``ecnudp discover --scale 0.1`` — run only the DNS discovery phase.
* ``ecnudp traceroute --scale 0.1 --vantage ec2-virginia --server 0``
  — print one annotated traceroute.
* ``ecnudp serve --port 8750 --workers 2`` — run the multi-tenant
  study server (submit/monitor studies over HTTP).
* ``ecnudp studies --dir results/`` — enumerate a results tree's
  run-id index (migrating pre-index archives into it).

Exit codes: ``0`` success, ``2`` invalid arguments or unusable input
(missing/corrupt study directories included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.discovery import PoolDiscovery
from .netsim.ipv4 import format_addr
from .obs import (
    FilterError,
    RunTelemetry,
    parse_filter,
    render_metrics_report,
)
from .spec import DEFAULT_SCALE, DEFAULT_SEED, StudySpec, ValidationError
from .study import Study


def _fail(message: str) -> int:
    """Print a one-line error and return the CLI's failure exit code."""
    print(message, file=sys.stderr)
    return 2


def _spec(args: argparse.Namespace) -> StudySpec:
    """The run spec named by the flags :func:`_add_spec_flags` declares.

    Raises :class:`~repro.spec.ValidationError` on bad values — on the
    command line a scale above 1 is almost certainly a typo, so it is
    rejected rather than silently run at the full paper scale.
    """
    return StudySpec(
        scale=args.scale,
        seed=args.seed,
        quic=getattr(args, "quic", False),
        faults=getattr(args, "chaos", None),
        chaos_seed=getattr(args, "chaos_seed", 0),
    )


def _probe_target(args: argparse.Namespace):
    """``(world, vantage host, server)`` named by ``--scale``/``--seed``/
    ``--vantage``/``--server``; raises ValidationError on bad values."""
    world = _spec(args).build_world()
    if args.vantage not in world.vantage_hosts:
        raise ValidationError(
            f"unknown vantage {args.vantage!r}; one of: {', '.join(world.vantage_hosts)}"
        )
    if not 0 <= args.server < len(world.servers):
        raise ValidationError(f"server index out of range (0..{len(world.servers) - 1})")
    return world, world.vantage_hosts[args.vantage], world.servers[args.server]


def cmd_study(args: argparse.Namespace) -> int:
    workers = args.workers
    if workers < 0:
        return _fail(f"--workers must be >= 0: {workers}")
    if args.profile and not args.out:
        return _fail("--profile needs --out to write profile dumps into")
    if args.trace_packets is not None:
        try:
            parse_filter(args.trace_packets)
        except FilterError as exc:
            return _fail(f"bad --trace-packets expression: {exc}")
        if workers > 0:
            # Per-packet event streams have no wire encoding, so they
            # cannot come back from shard workers.
            print(
                "--trace-packets requires sequential execution; "
                "ignoring --workers",
                file=sys.stderr,
            )
            workers = 0
    try:
        spec = _spec(args)
    except ValidationError as exc:
        return _fail(str(exc))

    def progress(done: int, total: int, label: str) -> None:
        print(f"trace {done + 1}/{total} from {label}", file=sys.stderr)

    if workers > 0:
        print(f"running sharded across {workers} workers", file=sys.stderr)
    study = Study.run(
        **vars(spec),
        workers=workers,
        progress=progress if args.verbose else None,
        collect_metrics=args.metrics,
        trace_filter=args.trace_packets,
        record=args.record,
        obs_dir=args.out,
        profile=args.profile,
    )
    print(f"built {study.world!r}", file=sys.stderr)
    print(f"discovered {len(study.traces.server_addrs)} servers", file=sys.stderr)
    if study.spec.plan is not None:
        summary = study.spec.plan.summary()
        print(
            f"chaos profile={summary['profile']} seed={summary['chaos_seed']}: "
            f"{summary['events']} events over "
            f"{summary['epochs_touched']} epochs",
            file=sys.stderr,
        )
    if args.out:
        study.save(args.out)
        print(f"study written to {args.out}/", file=sys.stderr)
    print(study.report())
    if study.tracer is not None:
        print(f"\n== Packet trace ({args.trace_packets}) ==")
        dumped = study.tracer.dump(max_lines=args.trace_limit)
        print(dumped if dumped else "  (no packets matched)")
    if study.metrics is not None:
        print()
        print(render_metrics_report(study.metrics, study.telemetry))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    study = Path(args.study)
    metrics_path = study / "metrics.json"
    if not metrics_path.exists():
        return _fail(
            f"no metrics.json in {study}/ — re-run the study with "
            "`ecnudp study --metrics`"
        )
    try:
        snapshot = json.loads(metrics_path.read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"unreadable {metrics_path}: {exc}")
    if getattr(args, "format", "text") == "prometheus":
        from .obs import render_prometheus

        print(render_prometheus(snapshot), end="")
        return 0
    telemetry = None
    telemetry_path = study / "telemetry.json"
    if telemetry_path.exists():
        try:
            document = json.loads(telemetry_path.read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"unreadable {telemetry_path}: {exc}")
        telemetry = RunTelemetry(
            workers=document.get("workers", 0),
            wall_seconds=document.get("wall_seconds", 0.0),
            metrics=document.get("metrics", snapshot),
            runner=document.get("runner", {}),
        )
        from .obs import ShardRecord

        for entry in document.get("shards", []):
            telemetry.record_shard(ShardRecord(**entry))
    print(render_metrics_report(snapshot, telemetry))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.study is not None:
        study = Path(args.study)
    else:
        # --run-id: resolve the archive through the results index.
        from .serve import StudyIndex, StudyIndexError

        try:
            resolved = StudyIndex(args.dir).directory(args.run_id)
        except StudyIndexError as exc:
            return _fail(str(exc))
        if resolved is None:
            return _fail(f"run id {args.run_id!r} not in {args.dir}/index.json")
        study = resolved
    if not study.is_dir():
        return _fail(f"no study directory at {study}/")
    try:
        # Drifted archives (campaign epochs) rebuild their drifted
        # world from the manifest; QUIC sections appear when the traces
        # carry QUIC outcome rows.
        loaded = Study.load(study)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot load study from {study}/: {exc}")
    print(loaded.report())
    _write_dashboard(study, args.dashboard)
    return 0


def _write_dashboard(directory: Path, option: str | None) -> None:
    """Render ``--dashboard [PATH]`` (default ``<directory>/dashboard.html``)."""
    if option is not None:
        from .obs import write_dashboard

        target = directory / "dashboard.html" if option == "" else Path(option)
        written = write_dashboard(directory, target)
        print(f"dashboard written to {written}", file=sys.stderr)


def cmd_discover(args: argparse.Namespace) -> int:
    try:
        world = _spec(args).build_world()
    except ValidationError as exc:
        return _fail(str(exc))
    discovery = PoolDiscovery(
        world.vantage_hosts["ugla-wired"], world.dns_addr, world.pool.zone_names()
    )
    report = discovery.run()
    print(
        f"{len(report)} servers discovered over {report.sweeps} sweeps "
        f"({report.queries_sent} queries, {report.queries_answered} answered)"
    )
    for addr in report.addresses[: args.limit]:
        print(f"  {format_addr(addr)}")
    if len(report) > args.limit:
        print(f"  ... and {len(report) - args.limit} more")
    return 0


def cmd_traceroute(args: argparse.Namespace) -> int:
    from .core.probes import run_traceroute

    try:
        world, vantage, target = _probe_target(args)
    except ValidationError as exc:
        return _fail(str(exc))
    path = run_traceroute(vantage, target.addr, params=world.params.probes)
    print(f"traceroute to {target.hostname} ({format_addr(target.addr)}) "
          f"from {args.vantage}, ECT(0)-marked UDP")
    for hop in path.hops:
        if not hop.responded:
            print(f"{hop.ttl:3d}  *")
            continue
        mark = "ECT(0) intact" if hop.mark_preserved else "ECN field cleared"
        rtt = f"{hop.rtt * 1000:.1f} ms" if hop.rtt is not None else "-"
        print(f"{hop.ttl:3d}  {format_addr(hop.responder):15s}  {rtt:>9s}  {mark}")
    return 0


def cmd_tracebox(args: argparse.Namespace) -> int:
    from .core.tracebox import run_tracebox
    from .netsim.ecn import dscp_from_tos, ecn_from_tos

    try:
        world, vantage, target = _probe_target(args)
    except ValidationError as exc:
        return _fail(str(exc))
    result = run_tracebox(
        vantage, target.addr, dscp=args.dscp, params=world.params.probes
    )
    print(
        f"tracebox to {target.hostname} from {args.vantage} "
        f"(sent DSCP={args.dscp}, ECT(0))"
    )
    for hop in result.path.hops:
        if hop.responder is None or hop.quoted_tos is None:
            print(f"{hop.ttl:3d}  *")
            continue
        ecn = ecn_from_tos(hop.quoted_tos)
        dscp = dscp_from_tos(hop.quoted_tos)
        print(
            f"{hop.ttl:3d}  {format_addr(hop.responder):15s}  "
            f"quoted DSCP={dscp:<2d} ECN={ecn.describe()}"
        )
    print(f"verdict: {result.classify_tos_interference()}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _spec(args)
    except ValidationError as exc:
        return _fail(str(exc))
    # Every deployed server is probed: inference quality is scored
    # against ground truth, not against what discovery happened to see.
    study = Study.run(**vars(spec), discover=False)

    print("Headline statistics (bootstrap over traces):")
    for line in study.intervals().summary_lines():
        print(f"  {line}")

    print("\nInference quality vs deployed ground truth:")
    for quality in study.validate():
        print(
            f"  {quality.name:<18} precision={quality.precision:.2f} "
            f"recall={quality.recall:.2f} f1={quality.f1:.2f}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from .serve import ServeConfig, run_server

    if not 0 <= args.port <= 65535:
        return _fail(f"--port must be in [0, 65535]: {args.port}")
    if args.workers < 0:
        return _fail(f"--workers must be >= 0: {args.workers}")
    if args.queue_depth < 1:
        return _fail(f"--queue-depth must be >= 1: {args.queue_depth}")
    if args.tenant_quota < 1:
        return _fail(f"--tenant-quota must be >= 1: {args.tenant_quota}")
    if args.max_concurrent < 1:
        return _fail(f"--max-concurrent must be >= 1: {args.max_concurrent}")
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        max_concurrent=args.max_concurrent,
        data_dir=args.data_dir,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def cmd_studies(args: argparse.Namespace) -> int:
    from .serve import StudyIndexError, migrate_results_root

    root = Path(args.dir)
    try:
        index, added = migrate_results_root(root)
    except StudyIndexError as exc:
        return _fail(str(exc))
    if added:
        print(f"indexed {len(added)} pre-index archive(s)", file=sys.stderr)
    entries = index.entries()
    if args.json:
        print(json.dumps({"studies": entries}, indent=2))
        return 0
    if not entries:
        print(f"no studies indexed under {root}/")
        return 0
    for run_id, entry in entries.items():
        tenant = entry.get("tenant", "-")
        print(
            f"{run_id:<16} {entry.get('status', '?'):<10} "
            f"scale={entry.get('scale')} seed={entry.get('seed')} "
            f"tenant={tenant} dir={entry.get('dir')}"
        )
    return 0


def _drive_campaign(args: argparse.Namespace, open_driver) -> int:
    """Open a campaign driver (create or resume), run it, report."""
    from .campaign import CampaignError

    if args.workers < 0:
        return _fail(f"--workers must be >= 0: {args.workers}")

    def progress(done: int, total: int, label: str) -> None:
        print(f"  [{done}/{total}] {label}", file=sys.stderr)

    try:
        driver = open_driver(progress if args.verbose else None)
        executed = driver.run()
    except (CampaignError, ValidationError) as exc:
        return _fail(str(exc))
    print(
        f"campaign {args.dir}: ran {executed} epoch(s), "
        f"{len(driver.archive.checkpoints())}/{driver.archive.target_epochs} complete"
    )
    print(f"trend report: {driver.archive.report_path}")
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignDriver, CampaignSpec

    if args.epochs < 1:
        return _fail(f"--epochs must be >= 1: {args.epochs}")
    return _drive_campaign(
        args,
        lambda progress: CampaignDriver.create(
            args.dir,
            CampaignSpec(
                _spec(args),
                start_year=args.start_year,
                cadence_years=args.cadence,
                timeline=args.timeline,
                pool_churn=not args.no_pool_churn,
            ),
            target_epochs=args.epochs,
            workers=args.workers,
            progress=progress,
        ),
    )


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import CampaignDriver

    return _drive_campaign(
        args,
        lambda progress: CampaignDriver.resume(
            args.dir, target_epochs=args.epochs, workers=args.workers, progress=progress
        ),
    )


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import CampaignArchive, CampaignError, campaign_status

    try:
        archive = CampaignArchive.load(args.dir)
        status = campaign_status(archive)
    except CampaignError as exc:
        return _fail(str(exc))
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    print(f"campaign {status['directory']}")
    print(
        f"  timeline={status['spec']['timeline']} "
        f"scale={status['spec']['scale']} seed={status['spec']['seed']}"
    )
    print(
        f"  epochs: {status['completed_epochs']}/{status['target_epochs']} "
        f"complete, {status['merged_epochs']} merged"
        + (" — done" if status["complete"] else f", next epoch {status['next_epoch']}")
    )
    if status["years"]:
        print("  years: " + ", ".join(f"{y:.2f}" for y in status["years"]))
    if status["alerts"]:
        by_rule = ", ".join(
            f"{rule}={count}" for rule, count in status["alerts_by_rule"].items()
        )
        print(f"  SLO alerts: {status['alerts']} ({by_rule})")
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import CampaignArchive, CampaignError, render_trend_report

    try:
        archive = CampaignArchive.load(args.dir)
        print(render_trend_report(archive), end="")
    except CampaignError as exc:
        return _fail(str(exc))
    _write_dashboard(archive.directory, args.dashboard)
    return 0


def _add_world_flags(parser: argparse.ArgumentParser, scale: float = DEFAULT_SCALE) -> None:
    """``--scale``/``--seed``: the world every subcommand builds."""
    parser.add_argument("--scale", type=float, default=scale,
                        help="population scale vs the paper's 2500 servers")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The :class:`~repro.spec.StudySpec` flags of ``study`` and ``campaign run``."""
    _add_world_flags(parser)
    parser.add_argument("--quic", action="store_true",
                        help="also run the QUIC ECN-validation probe "
                             "family (RFC 9000 §13.4 count validation "
                             "against every server)")
    parser.add_argument("--chaos", type=str, default=None, metavar="PROFILE",
                        help="inject deterministic faults from a chaos "
                             "profile (light/default/heavy/reroute)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for fault-plan generation (same seed "
                             "+ profile = same plan)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecnudp",
        description="Reproduction of 'Is ECN usable with UDP?' (IMC 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    study = sub.add_parser("study", help="run the full measurement study")
    _add_spec_flags(study)
    study.add_argument("--out", type=str, default=None,
                       help="directory to write the dataset into")
    study.add_argument("--workers", type=int, default=0,
                       help="worker processes for sharded execution "
                            "(0 = sequential; results are identical)")
    study.add_argument("--metrics", action="store_true",
                       help="collect simulation metrics (counters are "
                            "identical for any --workers value)")
    study.add_argument("--trace-packets", type=str, default=None,
                       metavar="EXPR",
                       help="trace packets matching a filter, e.g. "
                            "'udp and dst 10.3.0.7' (forces sequential)")
    study.add_argument("--trace-limit", type=int, default=200,
                       help="max packet-trace lines to print")
    study.add_argument("--record", nargs="?", const="epoch",
                       choices=["epoch", "probe"], default=None,
                       metavar="DETAIL",
                       help="record the study's event log: epoch starts, "
                            "chaos installations and the span timeline "
                            "(epoch or probe detail; canonical form "
                            "identical for any --workers value); with "
                            "--out also writes events.jsonl, spans.json "
                            "and trace.json (Perfetto / chrome://tracing)")
    study.add_argument("--profile", action="store_true",
                       help="capture cProfile stats per shard "
                            "(profile-shard-<id>.pstats) into --out")
    study.add_argument("--verbose", action="store_true")
    study.set_defaults(func=cmd_study)

    report = sub.add_parser("report", help="re-analyse a saved study")
    target = report.add_mutually_exclusive_group(required=True)
    target.add_argument("--study", type=str, default=None,
                        help="study archive directory")
    target.add_argument("--run-id", type=str, default=None,
                        help="run id, resolved through <--dir>/index.json")
    report.add_argument("--dir", type=str, default="results",
                        help="results tree for --run-id resolution")
    report.add_argument("--dashboard", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="also render the run dashboard (HTML, or "
                             "markdown for .md paths); defaults to "
                             "<study>/dashboard.html")
    report.set_defaults(func=cmd_report)

    metrics = sub.add_parser(
        "metrics", help="render a saved study's metrics and telemetry"
    )
    metrics.add_argument("--study", type=str, required=True)
    metrics.add_argument("--format", choices=["text", "prometheus"],
                         default="text",
                         help="output format: human-readable report, or "
                              "Prometheus text exposition 0.0.4 (counters, "
                              "gauges and histograms from metrics.json)")
    metrics.set_defaults(func=cmd_metrics)

    discover = sub.add_parser("discover", help="run pool discovery only")
    _add_world_flags(discover)
    discover.add_argument("--limit", type=int, default=20)
    discover.set_defaults(func=cmd_discover)

    traceroute = sub.add_parser("traceroute", help="print one traceroute")
    _add_world_flags(traceroute)
    traceroute.add_argument("--vantage", type=str, default="ugla-wired")
    traceroute.add_argument("--server", type=int, default=0)
    traceroute.set_defaults(func=cmd_traceroute)

    validate = sub.add_parser(
        "validate",
        help="run a study and score its inferences against ground truth",
    )
    _add_world_flags(validate, scale=0.05)
    validate.set_defaults(func=cmd_validate)

    tracebox = sub.add_parser(
        "tracebox", help="per-hop header diff (ECN + DSCP) to one server"
    )
    _add_world_flags(tracebox)
    tracebox.add_argument("--vantage", type=str, default="ugla-wired")
    tracebox.add_argument("--server", type=int, default=0)
    tracebox.add_argument("--dscp", type=int, default=8)
    tracebox.set_defaults(func=cmd_tracebox)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant HTTP study server"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8750,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="shared worker-pool processes for sharded "
                            "study execution (0 = sequential threads)")
    serve.add_argument("--queue-depth", type=int, default=16,
                       help="max queued submissions before 429s")
    serve.add_argument("--tenant-quota", type=int, default=4,
                       help="max queued+running studies per tenant")
    serve.add_argument("--max-concurrent", type=int, default=2,
                       help="studies executing at once")
    serve.add_argument("--data-dir", type=str, default="results",
                       help="results tree (archives, index.json, "
                            "queue.json between restarts)")
    serve.set_defaults(func=cmd_serve)

    campaign = sub.add_parser(
        "campaign",
        help="longitudinal campaigns: recurring studies over a "
             "time-parameterised scenario",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    c_run = campaign_sub.add_parser(
        "run", help="create a campaign archive and run its epochs"
    )
    c_run.add_argument("--dir", type=str, required=True,
                       help="campaign archive directory (must not exist yet)")
    c_run.add_argument("--epochs", type=int, required=True,
                       help="number of epochs (simulated measurement rounds)")
    _add_spec_flags(c_run)
    c_run.add_argument("--start-year", type=float, default=2015.33,
                       help="simulated calendar year of epoch 0 "
                            "(default: the paper's 2015 window)")
    c_run.add_argument("--cadence", type=float, default=1.0,
                       metavar="YEARS",
                       help="simulated years between epochs")
    c_run.add_argument("--timeline", type=str, default="fresh-look",
                       help="drift timeline (fresh-look/frozen)")
    c_run.add_argument("--no-pool-churn", action="store_true",
                       help="freeze the address pool across epochs "
                            "instead of re-deriving it per epoch")
    c_run.add_argument("--workers", type=int, default=0,
                       help="worker processes per epoch (0 = sequential; "
                            "archives are identical)")
    c_run.add_argument("--verbose", action="store_true")
    c_run.set_defaults(func=cmd_campaign_run)

    c_resume = campaign_sub.add_parser(
        "resume",
        help="resume an interrupted campaign (validates checkpoints, "
             "discards crash leftovers, converges on the same bytes)",
    )
    c_resume.add_argument("--dir", type=str, required=True)
    c_resume.add_argument("--epochs", type=int, default=None,
                          help="optionally raise the epoch target")
    c_resume.add_argument("--workers", type=int, default=0)
    c_resume.add_argument("--verbose", action="store_true")
    c_resume.set_defaults(func=cmd_campaign_resume)

    c_status = campaign_sub.add_parser(
        "status", help="show a campaign's checkpoint state"
    )
    c_status.add_argument("--dir", type=str, required=True)
    c_status.add_argument("--json", action="store_true")
    c_status.set_defaults(func=cmd_campaign_status)

    c_report = campaign_sub.add_parser(
        "report", help="print the merged trend report"
    )
    c_report.add_argument("--dir", type=str, required=True)
    c_report.add_argument("--dashboard", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="also render the campaign dashboard "
                               "(HTML, or markdown for .md paths); "
                               "defaults to <dir>/dashboard.html")
    c_report.set_defaults(func=cmd_campaign_report)

    studies = sub.add_parser(
        "studies", help="list a results tree's indexed runs"
    )
    studies.add_argument("--dir", type=str, default="results",
                        help="results tree holding index.json")
    studies.add_argument("--json", action="store_true",
                        help="emit the index as JSON")
    studies.set_defaults(func=cmd_studies)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
