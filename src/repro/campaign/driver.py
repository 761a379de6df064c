"""The campaign driver: run epochs, checkpoint, survive being killed.

The driver owns *execution*; :mod:`repro.campaign.archive` owns the
disk format.  One epoch advances through four atomic steps::

    run study --> save into .epoch-NNNN.partial/ --> os.replace to
    epoch-NNNN/ --> append checkpoint record --> merge trend point

Kill the process between any two steps and :meth:`CampaignDriver.resume`
classifies the leftovers exactly (see ``clean_interrupted``), discards
what never reached a checkpoint, and re-runs it.  Because epoch ``N``
is a pure function of ``(spec, N)`` — hermetic epochs underneath, the
drift and world seed derived from the campaign seed — the re-run
produces byte-identical artefacts, so an interrupted-and-resumed
campaign's final archive equals an uninterrupted run's, byte for byte.
The campaign-smoke CI lane (``benchmarks/check_campaign_resume.py``)
enforces exactly that with a SIGKILL mid-epoch.

For crash testing, ``ECNUDP_CAMPAIGN_KILL="<epoch>:<phase>"`` makes
the driver SIGKILL *itself* at a named point (``before-save``,
``partial``, ``renamed``, ``checkpointed``) — a real process death,
not an exception a ``finally`` could tidy up after.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace
from pathlib import Path

from ..core.measurement import ProgressFn
from ..study import Study
from .archive import CampaignArchive, CampaignError, CampaignSpec, CheckpointRecord
from .report import render_trend_report
from .watch import wall_time_regression

#: Env var arming the self-kill hook: ``"<epoch>:<phase>"``.
KILL_ENV = "ECNUDP_CAMPAIGN_KILL"

KILL_PHASES = ("before-save", "partial", "renamed", "checkpointed")


def _maybe_kill(epoch: int, phase: str) -> None:
    """SIGKILL ourselves if the crash hook targets this point."""
    spec = os.environ.get(KILL_ENV)
    if not spec:
        return
    try:
        kill_epoch, kill_phase = spec.split(":", 1)
        if int(kill_epoch) == epoch and kill_phase == phase:
            os.kill(os.getpid(), signal.SIGKILL)
    except ValueError:
        raise CampaignError(
            f"bad {KILL_ENV}={spec!r}: expected '<epoch>:<phase>' with "
            f"phase one of {', '.join(KILL_PHASES)}"
        ) from None


class CampaignDriver:
    """Runs a campaign's remaining epochs against its archive."""

    def __init__(
        self,
        archive: CampaignArchive,
        workers: int = 0,
        pool=None,
        progress: ProgressFn | None = None,
        events=None,
    ) -> None:
        self.archive = archive
        self.workers = workers
        self.pool = pool
        self.progress = progress
        #: Live event log (or the server's run-scoped view) the driver
        #: narrates epoch lifecycle and SLO breaches into.  Wall-clock
        #: side only — the deterministic alert record is
        #: ``alerts.jsonl``, written by :meth:`CampaignArchive.refresh_alerts`.
        self.events = events
        #: ``(rule, epoch)`` pairs already narrated, so re-merges do
        #: not re-announce old breaches into the live log.
        self._alerted: set[tuple[str, int]] = set()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str | Path,
        spec: CampaignSpec,
        target_epochs: int,
        workers: int = 0,
        pool=None,
        progress: ProgressFn | None = None,
        events=None,
    ) -> "CampaignDriver":
        archive = CampaignArchive.create(directory, spec, target_epochs)
        return cls(
            archive, workers=workers, pool=pool, progress=progress, events=events
        )

    @classmethod
    def resume(
        cls,
        directory: str | Path,
        target_epochs: int | None = None,
        workers: int = 0,
        pool=None,
        progress: ProgressFn | None = None,
        events=None,
    ) -> "CampaignDriver":
        """Reopen an archive, validate it, and clear crash leftovers.

        Validation is strict: every checkpointed epoch's archive must
        match its recorded digest, and the checkpoint log must parse
        and be contiguous — corruption raises :class:`CampaignError`
        instead of silently re-running or mis-merging.  Crash leftovers
        (``.partial`` saves, published-but-uncheckpointed epoch
        directories) are discarded; their epochs re-run
        deterministically.
        """
        archive = CampaignArchive.load(directory)
        records = archive.checkpoints()
        try:
            archive.verify(records)
        except CampaignError as exc:
            if events:
                events.emit("campaign-digest-mismatch", "alert", error=str(exc))
            raise
        discarded = archive.clean_interrupted(records)
        if target_epochs is not None:
            archive.extend_target(target_epochs)
        if events:
            events.emit(
                "campaign-resume",
                "info",
                campaign=archive.directory.name,
                completed=len(records),
                target=archive.target_epochs,
                discarded=discarded,
            )
        return cls(
            archive, workers=workers, pool=pool, progress=progress, events=events
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run every remaining epoch; returns epochs executed.

        Finishes with a full re-merge and report regeneration, which
        also absorbs the one crash window the epoch loop cannot see:
        a checkpoint written but its trend point not merged.  Merging
        is idempotent, so the absorption is a no-op on clean runs.
        """
        executed = 0
        records = self.archive.checkpoints()
        durations: list[tuple[int, float]] = []
        for epoch in range(len(records), self.archive.target_epochs):
            started = time.perf_counter()
            records.append(self._run_epoch(epoch))
            durations.append((epoch, time.perf_counter() - started))
            executed += 1
        for record in records:
            self.archive.merge_epoch(record)
        self._refresh_watchdog()
        if self.events:
            # Wall-time regressions are live-log-only: wall clocks can
            # never join alerts.jsonl's byte-identity contract.
            for breach in wall_time_regression(durations):
                self.events.emit(
                    "slo-breach",
                    "alert",
                    **{k: v for k, v in breach.items() if k not in ("level", "kind")},
                )
        report = render_trend_report(self.archive)
        from ..ioutil import atomic_write_text

        atomic_write_text(self.archive.report_path, report)
        return executed

    def _refresh_watchdog(self) -> list[dict]:
        """Rebuild ``alerts.jsonl``; narrate new breaches to the live log."""
        alerts = self.archive.refresh_alerts()
        if self.events:
            for alert in alerts:
                key = (alert["rule"], alert["epoch"])
                if key in self._alerted:
                    continue
                self._alerted.add(key)
                self.events.emit(
                    "slo-breach",
                    "alert",
                    **{k: v for k, v in alert.items() if k not in ("level", "kind")},
                )
        return alerts

    def _run_epoch(self, epoch: int) -> CheckpointRecord:
        archive = self.archive
        drift = archive.spec.drift_for_epoch(epoch)
        partial = archive.partial_dir(epoch)
        final = archive.epoch_dir(epoch)
        if partial.exists():
            import shutil

            shutil.rmtree(partial)
        _maybe_kill(epoch, "before-save")
        self._materialise_epoch(epoch, drift, partial)
        _maybe_kill(epoch, "partial")
        final.parent.mkdir(parents=True, exist_ok=True)
        os.replace(partial, final)
        _maybe_kill(epoch, "renamed")
        record = CheckpointRecord(
            epoch=epoch,
            year=drift.year,
            drift=drift,
            digest=archive.digest_epoch(epoch),
        )
        archive.record_epoch(record)
        _maybe_kill(epoch, "checkpointed")
        if self.events:
            self.events.emit(
                "epoch-publish",
                "info",
                campaign=archive.directory.name,
                epoch=epoch,
                year=round(drift.year, 3),
            )
        archive.merge_epoch(record)
        self._refresh_watchdog()
        return record

    def _materialise_epoch(self, epoch: int, drift, directory: Path) -> None:
        """Run epoch ``N``'s study and save its archive into ``directory``.

        Separated out so tests can substitute a fast deterministic
        fake while exercising the real checkpoint/rename/merge
        machinery around it.  Metrics stay off: telemetry carries
        wall-clock timings, which would break byte-identity between
        interrupted and uninterrupted campaigns.
        """
        study = Study.run(
            **vars(replace(self.archive.spec.study, drift=drift)),
            workers=self.workers,
            progress=self.progress,
            pool=self.pool,
        )
        study.save(directory)
