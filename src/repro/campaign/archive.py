"""The on-disk campaign archive: manifest, checkpoints, epoch stores.

A campaign directory is an **append-only** archive of measurement
epochs::

    <dir>/
      campaign.json        manifest: format tag + spec + target epochs
      checkpoints.jsonl    one record per completed epoch, in order
      trend.json           delta-merged trend points (derived)
      report.txt           rendered trend report (derived)
      epochs/
        epoch-0000/        a full Study.save() archive per epoch
        epoch-0001/
        .epoch-0002.partial/   in-flight save (crash leftovers)

Durability protocol (the resume invariants, DESIGN.md §14):

1. an epoch's archive is saved into a hidden ``.epoch-NNNN.partial``
   directory, then published with one atomic ``os.replace`` rename;
2. only after the rename does its checkpoint record land in
   ``checkpoints.jsonl`` (rewritten atomically as a whole — the file
   is logically append-only but physically replaced, so a crash can
   never tear a line);
3. derived artefacts (``trend.json``, ``report.txt``) are rebuilt
   from the checkpoint records after each merge, also atomically.

A crash between any two steps leaves a state resume can classify
exactly: a ``.partial`` directory (discard, re-run), a published epoch
directory with no checkpoint (orphan: discard, re-run — the epoch is
a pure function of the spec, so the re-run is byte-identical), or a
checkpoint whose trend point has not merged yet (idempotent re-merge).
Because every step is atomic, an *unparseable* checkpoint line or a
digest mismatch is never crash fallout — it is genuine corruption, and
resume fails loudly (:class:`CampaignError`) instead of silently
re-running or mis-merging.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ..ioutil import atomic_write_text
from ..scenario.timeline import (
    PAPER_YEAR,
    EpochDrift,
    Timeline,
    timeline_by_name,
)
from ..spec import StudySpec, ValidationError, boolean, number

#: Version tag rejecting foreign files, mirroring the other envelopes.
CAMPAIGN_FORMAT = "ecn-udp-campaign/1"

#: Version tag of the derived trend document.
TREND_FORMAT = "ecn-udp-campaign-trend/1"

MANIFEST_NAME = "campaign.json"
CHECKPOINTS_NAME = "checkpoints.jsonl"
TREND_NAME = "trend.json"
REPORT_NAME = "report.txt"
ALERTS_NAME = "alerts.jsonl"
EPOCHS_DIRNAME = "epochs"

#: The campaign's own fields in ``campaign.json``'s spec object; every
#: other key there belongs to the embedded :class:`~repro.spec.StudySpec`.
CAMPAIGN_FIELDS = ("start_year", "cadence_years", "timeline", "pool_churn")


class CampaignError(ValueError):
    """A campaign archive that cannot be used (missing/corrupt/foreign)."""


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that makes a campaign's epochs reproducible.

    Epoch ``N`` of a campaign is a pure function of ``(spec, N)``:
    the spec carries no runtime knobs (worker counts, progress sinks),
    only identity — which is why a resumed campaign converges on an
    archive byte-identical to an uninterrupted run.  ``study`` is the
    study every epoch runs; its ``drift`` stays ``None`` because each
    epoch's drift is derived from the timeline fields.
    """

    study: StudySpec = StudySpec()
    start_year: float = PAPER_YEAR
    cadence_years: float = 1.0
    timeline: str = "fresh-look"
    pool_churn: bool = True

    def __post_init__(self) -> None:
        if self.study.drift is not None:
            raise CampaignError("a campaign's study spec carries no drift")
        if self.cadence_years <= 0:
            raise CampaignError(
                f"cadence_years must be > 0: {self.cadence_years!r}"
            )
        try:
            timeline_by_name(self.timeline)
        except ValueError as exc:
            raise CampaignError(str(exc)) from exc

    @property
    def timeline_obj(self) -> Timeline:
        return timeline_by_name(self.timeline)

    def drift_for_epoch(self, epoch: int) -> EpochDrift:
        """The drift epoch ``N`` runs under — pure in ``(spec, N)``."""
        return self.timeline_obj.drift_for_epoch(
            seed=self.study.seed,
            epoch=epoch,
            start_year=self.start_year,
            cadence_years=self.cadence_years,
            pool_churn=self.pool_churn,
        )

    def to_dict(self) -> dict:
        study = self.study.to_json()
        payload: dict = {"scale": study.pop("scale"), "seed": study.pop("seed")}
        payload.update((name, getattr(self, name)) for name in CAMPAIGN_FIELDS)
        # campaign.json has always listed traceroutes last.
        traceroutes = study.pop("traceroutes", True)
        payload.update(study)
        if not traceroutes:
            payload["traceroutes"] = False
        return payload

    @classmethod
    def from_dict(cls, payload) -> "CampaignSpec":
        """Validate a spec object strictly: a wrongly typed or unknown
        field raises :class:`CampaignError` naming it."""
        if not isinstance(payload, Mapping):
            raise CampaignError(f"campaign spec must be an object: {payload!r}")
        fields = dict(payload)
        options = {name: fields.pop(name) for name in CAMPAIGN_FIELDS if name in fields}
        timeline = options.get("timeline", "fresh-look")
        try:
            if not isinstance(timeline, str):
                raise ValidationError(f"timeline must be a string: {timeline!r}")
            return cls(
                study=StudySpec.from_json(fields),
                start_year=number(options, "start_year", PAPER_YEAR),
                cadence_years=number(options, "cadence_years", 1.0),
                timeline=timeline,
                pool_churn=boolean(options, "pool_churn", True),
            )
        except ValidationError as exc:
            raise CampaignError(f"unusable campaign spec: {exc}") from None


@dataclass(frozen=True)
class CheckpointRecord:
    """One completed epoch, as recorded in ``checkpoints.jsonl``.

    Deliberately free of wall-clock timestamps: the record is a pure
    function of ``(spec, epoch)`` plus the (deterministic) archive
    digest, so interrupted and uninterrupted campaigns write the same
    bytes.
    """

    epoch: int
    year: float
    drift: EpochDrift
    digest: str

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "year": self.year,
                "drift": self.drift.to_dict(),
                "digest": self.digest,
            }
        )

    @classmethod
    def from_json_line(cls, line: str, lineno: int) -> "CheckpointRecord":
        try:
            payload = json.loads(line)
        except ValueError as exc:
            raise CampaignError(
                f"corrupt checkpoint record on line {lineno}: {exc} "
                f"(the checkpoint file is written atomically, so this is "
                f"external damage, not crash fallout — restore the archive "
                f"from backup or delete it and re-run the campaign)"
            ) from exc
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("epoch"), int)
            or not isinstance(payload.get("digest"), str)
            or "drift" not in payload
        ):
            raise CampaignError(
                f"corrupt checkpoint record on line {lineno}: "
                f"not an epoch record: {line[:120]!r}"
            )
        try:
            drift = EpochDrift.from_dict(payload["drift"])
        except ValueError as exc:
            raise CampaignError(
                f"corrupt checkpoint record on line {lineno}: {exc}"
            ) from exc
        return cls(
            epoch=payload["epoch"],
            year=float(payload.get("year", drift.year)),
            drift=drift,
            digest=payload["digest"],
        )


def _digest_directory(directory: Path) -> str:
    """SHA-256 over an archive directory's relative paths and contents.

    The digest covers every regular file, sorted by POSIX-style
    relative path, so it is independent of filesystem iteration order —
    two byte-identical epoch archives always digest identically.
    """
    outer = hashlib.sha256()
    for path in sorted(
        (p for p in directory.rglob("*") if p.is_file()),
        key=lambda p: p.relative_to(directory).as_posix(),
    ):
        inner = hashlib.sha256(path.read_bytes()).hexdigest()
        outer.update(
            f"{path.relative_to(directory).as_posix()}\n{inner}\n".encode()
        )
    return outer.hexdigest()


class CampaignArchive:
    """Filesystem face of one campaign directory (no execution logic)."""

    def __init__(self, directory: str | Path, spec: CampaignSpec, target_epochs: int) -> None:
        self.directory = Path(directory)
        self.spec = spec
        self.target_epochs = target_epochs

    # ------------------------------------------------------------------
    # Creation / loading
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: str | Path, spec: CampaignSpec, target_epochs: int
    ) -> "CampaignArchive":
        directory = Path(directory)
        if target_epochs < 1:
            raise CampaignError(f"target epochs must be >= 1: {target_epochs!r}")
        if (directory / MANIFEST_NAME).exists():
            raise CampaignError(
                f"campaign archive already exists at {directory}/ — "
                f"resume it instead of re-creating it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        archive = cls(directory, spec, target_epochs)
        archive._write_manifest()
        return archive

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignArchive":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CampaignError(f"no campaign archive at {directory}/ (missing {MANIFEST_NAME})")
        try:
            document = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(f"unreadable {manifest_path}: {exc}") from exc
        if not isinstance(document, dict) or document.get("format") != CAMPAIGN_FORMAT:
            raise CampaignError(
                f"{manifest_path} is not a campaign manifest (format "
                f"{document.get('format') if isinstance(document, dict) else None!r} "
                f"!= {CAMPAIGN_FORMAT!r})"
            )
        spec = CampaignSpec.from_dict(document.get("spec", {}))
        target = document.get("target_epochs")
        if not isinstance(target, int) or target < 1:
            raise CampaignError(f"{manifest_path}: bad target_epochs {target!r}")
        return cls(directory, spec, target)

    def _write_manifest(self) -> None:
        document = {
            "format": CAMPAIGN_FORMAT,
            "spec": self.spec.to_dict(),
            "target_epochs": self.target_epochs,
        }
        atomic_write_text(
            self.directory / MANIFEST_NAME, json.dumps(document, indent=2)
        )

    def extend_target(self, target_epochs: int) -> None:
        """Raise the epoch target (recurring submissions extend it)."""
        if target_epochs < 1:
            raise CampaignError(f"target epochs must be >= 1: {target_epochs!r}")
        if target_epochs > self.target_epochs:
            self.target_epochs = target_epochs
            self._write_manifest()

    # ------------------------------------------------------------------
    # Epoch directories
    # ------------------------------------------------------------------
    def epoch_name(self, epoch: int) -> str:
        return f"epoch-{epoch:04d}"

    def epoch_dir(self, epoch: int) -> Path:
        return self.directory / EPOCHS_DIRNAME / self.epoch_name(epoch)

    def partial_dir(self, epoch: int) -> Path:
        return self.directory / EPOCHS_DIRNAME / f".{self.epoch_name(epoch)}.partial"

    def digest_epoch(self, epoch: int) -> str:
        return _digest_directory(self.epoch_dir(epoch))

    def epoch_dirs(self) -> list[Path]:
        """Published epoch directories, sorted by epoch index."""
        root = self.directory / EPOCHS_DIRNAME
        if not root.is_dir():
            return []
        return sorted(
            (p for p in root.iterdir() if p.is_dir() and p.name.startswith("epoch-")),
            key=lambda p: p.name,
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @property
    def checkpoints_path(self) -> Path:
        return self.directory / CHECKPOINTS_NAME

    def checkpoints(self) -> list[CheckpointRecord]:
        """Parse the checkpoint log; loud on any corruption.

        Records must be exactly epochs ``0..n-1`` in order — the file
        is only ever appended to under the durability protocol, so a
        gap, duplicate, or reordering is corruption, not crash
        fallout.
        """
        path = self.checkpoints_path
        if not path.exists():
            return []
        records: list[CheckpointRecord] = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                raise CampaignError(
                    f"corrupt checkpoint record on line {lineno}: blank line"
                )
            records.append(CheckpointRecord.from_json_line(line, lineno))
        for index, record in enumerate(records):
            if record.epoch != index:
                raise CampaignError(
                    f"checkpoint log out of order: line {index + 1} records "
                    f"epoch {record.epoch}, expected {index} — the archive "
                    f"has been externally modified"
                )
        return records

    def record_epoch(self, record: CheckpointRecord) -> None:
        """Append one checkpoint record (atomic whole-file rewrite).

        The file is small (one line per epoch), so logical append via
        atomic replace costs nothing and guarantees a crash can never
        leave a torn line behind.
        """
        existing = (
            self.checkpoints_path.read_text() if self.checkpoints_path.exists() else ""
        )
        atomic_write_text(
            self.checkpoints_path, existing + record.to_json_line() + "\n"
        )

    # ------------------------------------------------------------------
    # Consistency: verification and crash cleanup
    # ------------------------------------------------------------------
    def verify(self, records: list[CheckpointRecord] | None = None) -> None:
        """Check every recorded epoch's archive against its digest."""
        if records is None:
            records = self.checkpoints()
        for record in records:
            directory = self.epoch_dir(record.epoch)
            if not directory.is_dir():
                raise CampaignError(
                    f"checkpoint records epoch {record.epoch} but "
                    f"{directory}/ is missing — the archive has been "
                    f"externally modified"
                )
            digest = self.digest_epoch(record.epoch)
            if digest != record.digest:
                raise CampaignError(
                    f"epoch {record.epoch} archive digest mismatch "
                    f"({digest[:12]}... != recorded {record.digest[:12]}...) — "
                    f"the epoch directory has been externally modified; "
                    f"refusing to merge corrupt data"
                )

    def clean_interrupted(self, records: list[CheckpointRecord] | None = None) -> list[str]:
        """Remove crash leftovers; returns what was discarded.

        ``.partial`` directories are unpublished saves; a published
        epoch directory beyond the last checkpoint is an orphan (the
        driver died between the rename and the checkpoint write).
        Both are discarded — their epochs re-run deterministically, so
        the final archive is unaffected.
        """
        if records is None:
            records = self.checkpoints()
        discarded: list[str] = []
        root = self.directory / EPOCHS_DIRNAME
        if not root.is_dir():
            return discarded
        completed = len(records)
        for path in sorted(root.iterdir()):
            if not path.is_dir():
                continue
            if path.name.startswith(".") and path.name.endswith(".partial"):
                shutil.rmtree(path)
                discarded.append(path.name)
            elif path.name.startswith("epoch-"):
                try:
                    epoch = int(path.name.split("-", 1)[1])
                except ValueError:
                    continue
                if epoch >= completed:
                    shutil.rmtree(path)
                    discarded.append(path.name)
        return discarded

    # ------------------------------------------------------------------
    # Derived artefacts: the delta-merged trend
    # ------------------------------------------------------------------
    @property
    def trend_path(self) -> Path:
        return self.directory / TREND_NAME

    @property
    def report_path(self) -> Path:
        return self.directory / REPORT_NAME

    def trend_points(self) -> list[dict]:
        """The merged trend points, oldest epoch first."""
        path = self.trend_path
        if not path.exists():
            return []
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(f"unreadable {path}: {exc}") from exc
        if not isinstance(document, dict) or document.get("format") != TREND_FORMAT:
            raise CampaignError(
                f"{path} is not a campaign trend document"
            )
        points = document.get("points", [])
        if not isinstance(points, list):
            raise CampaignError(f"{path}: points must be a list")
        return points

    def write_trend_points(self, points: list[dict]) -> None:
        document = {
            "format": TREND_FORMAT,
            "points": sorted(points, key=lambda p: p["epoch"]),
        }
        atomic_write_text(self.trend_path, json.dumps(document, indent=2))

    # ------------------------------------------------------------------
    # Derived artefacts: watchdog alerts
    # ------------------------------------------------------------------
    @property
    def alerts_path(self) -> Path:
        return self.directory / ALERTS_NAME

    def alerts(self) -> list[dict]:
        """The persisted SLO breaches, oldest epoch first."""
        path = self.alerts_path
        if not path.exists():
            return []
        from ..obs import parse_events_jsonl

        try:
            return parse_events_jsonl(path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(f"unreadable {path}: {exc}") from exc

    def refresh_alerts(self) -> list[dict]:
        """Re-evaluate the SLO rules and rewrite ``alerts.jsonl``.

        Like the trend and the report, the alert file is a derived
        artefact rebuilt from scratch: a pure function of the trend
        points and the spec's timeline, written atomically, so
        interrupted and uninterrupted campaigns converge on identical
        bytes.  The file exists (possibly empty) whenever at least one
        evaluation ran — "no alerts" and "never evaluated" stay
        distinguishable.
        """
        from ..obs import render_events_jsonl
        from .watch import evaluate_rules

        alerts = evaluate_rules(self.trend_points(), self.spec.timeline_obj)
        atomic_write_text(self.alerts_path, render_events_jsonl(alerts))
        return alerts

    def merge_epoch(self, record: CheckpointRecord) -> bool:
        """Delta-merge one recorded epoch into ``trend.json``.

        Idempotent: re-merging an epoch that already has a trend point
        is a no-op (returns ``False``), so replays after a crash
        between checkpoint and merge cannot double-count.
        """
        from .report import trend_point  # local: report imports archive

        points = self.trend_points()
        if any(p.get("epoch") == record.epoch for p in points):
            return False
        summary_path = self.epoch_dir(record.epoch) / "summary.json"
        try:
            summary = json.loads(summary_path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"cannot merge epoch {record.epoch}: unreadable "
                f"{summary_path}: {exc}"
            ) from exc
        points.append(trend_point(record, summary))
        self.write_trend_points(points)
        return True
