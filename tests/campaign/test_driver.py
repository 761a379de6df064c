"""Driver tests: epoch execution, crash-window resume, determinism.

The interrupted-state matrix runs against a **fake** materialiser —
``_materialise_epoch`` is substituted with a fast deterministic stub so
the tests exercise the real checkpoint/rename/merge machinery without
simulating the Internet per case.  One end-to-end kill/resume test
(marked ``slow``) runs the real thing through the CLI, mirroring the
campaign-smoke CI lane.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignArchive, CampaignDriver, CampaignError, CampaignSpec
from repro.spec import StudySpec

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def fake_materialise(self: CampaignDriver, epoch: int, drift, directory: Path) -> None:
    """Deterministic stand-in for Study.run().save(directory)."""
    directory.mkdir(parents=True)
    (directory / "manifest.json").write_text(
        json.dumps(
            {
                "scale": self.archive.spec.study.scale,
                "seed": self.archive.spec.study.seed,
                "drift": drift.to_dict(),
            }
        )
    )
    (directory / "summary.json").write_text(
        json.dumps(
            {
                "section_4_1": {
                    "avg_udp_plain_reachable": 40.0,
                    "avg_pct_ect_given_plain": 95.0 - epoch,
                },
                "section_4_2": {
                    "pct_hops_passing": 90.0 + epoch,
                    "strip_events": 20 - epoch,
                },
                "section_4_3": {"pct_negotiated": 80.0 + epoch},
            }
        )
    )


@pytest.fixture
def fast_driver(monkeypatch):
    monkeypatch.setattr(CampaignDriver, "_materialise_epoch", fake_materialise)
    return CampaignDriver


def archive_bytes(directory: Path) -> dict[str, bytes]:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestRun:
    def test_runs_all_epochs_and_reports(self, tmp_path, fast_driver):
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = fast_driver.create(tmp_path / "camp", spec, target_epochs=3)
        assert driver.run() == 3
        archive = driver.archive
        assert len(archive.checkpoints()) == 3
        assert [p["epoch"] for p in archive.trend_points()] == [0, 1, 2]
        report = archive.report_path.read_text()
        assert "Longitudinal ECN campaign" in report
        assert "2015.33" in report

    def test_completed_campaign_run_is_noop(self, tmp_path, fast_driver):
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = fast_driver.create(tmp_path / "camp", spec, target_epochs=2)
        driver.run()
        before = archive_bytes(tmp_path / "camp")
        resumed = fast_driver.resume(tmp_path / "camp")
        assert resumed.run() == 0
        assert archive_bytes(tmp_path / "camp") == before

    def test_extend_target_runs_only_new_epochs(self, tmp_path, fast_driver):
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        fast_driver.create(tmp_path / "camp", spec, target_epochs=2).run()
        resumed = fast_driver.resume(tmp_path / "camp", target_epochs=4)
        assert resumed.run() == 2
        assert len(resumed.archive.checkpoints()) == 4


class TestResumeCrashWindows:
    """Each crash window, emulated on disk, resumes to identical bytes."""

    def control(self, fast_driver, directory: Path, epochs: int = 3) -> dict[str, bytes]:
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        fast_driver.create(directory, spec, target_epochs=epochs).run()
        return archive_bytes(directory)

    def interrupted(self, fast_driver, directory: Path, epochs: int = 3) -> CampaignArchive:
        """A campaign stopped cleanly after epoch 1 of ``epochs``."""
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = fast_driver.create(directory, spec, target_epochs=1)
        driver.run()
        driver.archive.extend_target(epochs)
        return driver.archive

    def test_resume_from_epoch_boundary(self, tmp_path, fast_driver):
        control = self.control(fast_driver, tmp_path / "control")
        archive = self.interrupted(fast_driver, tmp_path / "crashed")
        fast_driver.resume(archive.directory).run()
        assert archive_bytes(archive.directory) == control

    def test_resume_discards_partial_save(self, tmp_path, fast_driver):
        control = self.control(fast_driver, tmp_path / "control")
        archive = self.interrupted(fast_driver, tmp_path / "crashed")
        partial = archive.partial_dir(1)
        partial.mkdir(parents=True)
        (partial / "traces.json").write_text("torn")
        fast_driver.resume(archive.directory).run()
        assert archive_bytes(archive.directory) == control

    def test_resume_discards_orphan_epoch(self, tmp_path, fast_driver):
        # The driver died between os.replace and the checkpoint write:
        # the epoch directory exists but no record points at it.
        control = self.control(fast_driver, tmp_path / "control")
        archive = self.interrupted(fast_driver, tmp_path / "crashed")
        orphan = archive.epoch_dir(1)
        orphan.mkdir(parents=True)
        (orphan / "manifest.json").write_text("{}")
        fast_driver.resume(archive.directory).run()
        assert archive_bytes(archive.directory) == control

    def test_resume_merges_checkpointed_unmerged_epoch(self, tmp_path, fast_driver):
        # The driver died between the checkpoint write and the trend
        # merge: resume's final merge pass absorbs it idempotently.
        control = self.control(fast_driver, tmp_path / "control")
        spec = CampaignSpec(StudySpec(scale=0.02, seed=7))
        driver = fast_driver.create(tmp_path / "crashed", spec, target_epochs=2)
        driver.run()
        driver.archive.extend_target(3)
        trend = json.loads(driver.archive.trend_path.read_text())
        trend["points"] = trend["points"][:1]  # epoch 1 checkpointed, unmerged
        driver.archive.trend_path.write_text(json.dumps(trend, indent=2))
        fast_driver.resume(tmp_path / "crashed").run()
        assert archive_bytes(tmp_path / "crashed") == control

    def test_resume_refuses_corrupt_checkpoint(self, tmp_path, fast_driver):
        archive = self.interrupted(fast_driver, tmp_path / "crashed")
        text = archive.checkpoints_path.read_text()
        archive.checkpoints_path.write_text(text[: len(text) // 2])
        with pytest.raises(CampaignError, match="corrupt checkpoint"):
            fast_driver.resume(archive.directory)

    def test_resume_refuses_tampered_epoch(self, tmp_path, fast_driver):
        archive = self.interrupted(fast_driver, tmp_path / "crashed")
        summary = archive.epoch_dir(0) / "summary.json"
        summary.write_text(summary.read_text().replace("40.0", "999.0"))
        with pytest.raises(CampaignError, match="digest mismatch"):
            fast_driver.resume(archive.directory)


@pytest.mark.slow
class TestKillResumeEndToEnd:
    """The campaign-smoke contract, in miniature: SIGKILL + resume."""

    def run_cli(self, args: list[str], kill: str | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env.pop("ECNUDP_CAMPAIGN_KILL", None)
        if kill:
            env["ECNUDP_CAMPAIGN_KILL"] = kill
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env,
            capture_output=True,
            text=True,
        )

    def test_sigkill_mid_epoch_resumes_byte_identical(self, tmp_path):
        common = ["--epochs", "2", "--scale", "0.02", "--seed", "7",
                  "--cadence", "3.5"]
        killed = self.run_cli(
            ["campaign", "run", "--dir", str(tmp_path / "a"), *common],
            kill="1:partial",
        )
        assert killed.returncode == -signal.SIGKILL
        resumed = self.run_cli(["campaign", "resume", "--dir", str(tmp_path / "a")])
        assert resumed.returncode == 0, resumed.stderr
        control = self.run_cli(
            ["campaign", "run", "--dir", str(tmp_path / "b"), *common]
        )
        assert control.returncode == 0, control.stderr
        assert archive_bytes(tmp_path / "a") == archive_bytes(tmp_path / "b")
