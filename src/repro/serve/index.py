"""Stable run-id manifest for a results tree.

A results root (``results/`` by convention, the server's data
directory in production) accumulates one subdirectory per saved study.
Before this module the only way to know what a tree held was to walk
it and parse each ``manifest.json``; now the root carries a top-level
``index.json`` mapping **run ids** to their directory and parameters,
which the server's listing endpoints and ``ecnudp studies`` enumerate
without touching the archives themselves.

The index is written atomically (:mod:`repro.ioutil`) and is purely
additive metadata: every archive stays self-describing, and
:func:`migrate_results_root` rebuilds index entries for trees written
before the index existed (run id = directory name).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..ioutil import atomic_write_text

#: Version tag rejecting foreign files, mirroring the other envelopes.
INDEX_FORMAT = "ecn-udp-index/1"

#: Run lifecycle states recorded in the index.
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"


class StudyIndexError(ValueError):
    """The index file exists but cannot be used (foreign/corrupt)."""


class StudyIndex:
    """The ``index.json`` at the root of one results tree.

    Instances hold the parsed document and write the whole file back
    atomically on every mutation — the file is small (one dict entry
    per run) and a torn index would orphan every archive under it.

    One root, one writer: an instance caches the document in memory,
    so a second concurrent writer's flush would silently revert this
    one's updates (lost update).  The server funnels every mutation
    through its single instance on the event loop thread; the CLI is a
    sequential single process.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / "index.json"
        self._studies: dict[str, dict] = {}
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise StudyIndexError(f"unreadable study index {self.path}: {exc}") from exc
        if not isinstance(document, dict) or document.get("format") != INDEX_FORMAT:
            raise StudyIndexError(
                f"{self.path} is not a study index (format "
                f"{document.get('format')!r} != {INDEX_FORMAT!r})"
            )
        studies = document.get("studies", {})
        if isinstance(studies, dict):
            self._studies = {str(k): dict(v) for k, v in studies.items()}

    def _flush(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        document = {
            "format": INDEX_FORMAT,
            "studies": {k: self._studies[k] for k in sorted(self._studies)},
        }
        atomic_write_text(self.path, json.dumps(document, indent=2))

    # ------------------------------------------------------------------
    def register(
        self,
        run_id: str,
        directory: str | Path,
        scale: float,
        seed: int,
        status: str = STATUS_COMPLETE,
        **extra,
    ) -> dict:
        """Add or update a run's entry; returns the stored entry.

        ``directory`` is stored relative to the root when it lies
        inside it, keeping the tree relocatable.
        """
        directory = Path(directory)
        try:
            stored = str(directory.relative_to(self.root))
        except ValueError:
            stored = str(directory)
        entry = {"dir": stored, "scale": scale, "seed": seed, "status": status}
        entry.update(extra)
        self._studies[run_id] = entry
        self._flush()
        return entry

    def set_status(self, run_id: str, status: str, **extra) -> None:
        entry = self._studies.get(run_id)
        if entry is None:
            raise KeyError(f"unknown run id {run_id!r}")
        entry["status"] = status
        entry.update(extra)
        self._flush()

    def remove(self, run_id: str) -> None:
        if self._studies.pop(run_id, None) is not None:
            self._flush()

    # ------------------------------------------------------------------
    def get(self, run_id: str) -> dict | None:
        entry = self._studies.get(run_id)
        return dict(entry) if entry is not None else None

    def entries(self) -> dict[str, dict]:
        """All entries, run id -> entry, sorted by run id (a copy)."""
        return {k: dict(self._studies[k]) for k in sorted(self._studies)}

    def directory(self, run_id: str) -> Path | None:
        """Absolute path of a run's archive directory, if indexed."""
        entry = self._studies.get(run_id)
        if entry is None:
            return None
        path = Path(entry["dir"])
        return path if path.is_absolute() else self.root / path

    def __len__(self) -> int:
        return len(self._studies)

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._studies


def migrate_results_root(root: str | Path) -> tuple[StudyIndex, list[str]]:
    """Index any pre-index archives under ``root``; returns new ids.

    Every direct subdirectory holding a readable ``manifest.json`` and
    not yet indexed gains an entry whose run id is the directory name —
    stable across re-migrations, and what older trees were addressed by
    anyway.  Campaign archives (directories holding a ``campaign.json``)
    gain a ``kind: campaign`` entry naming their member epochs, plus
    one ``<campaign>/epoch-NNNN`` entry per epoch archive, so
    ``ecnudp studies`` and ``report --run-id`` can address individual
    epochs.  Returns ``(index, newly added run ids)``.
    """
    root = Path(root)
    index = StudyIndex(root)
    indexed_dirs = {
        str(index.directory(run_id)) for run_id in index.entries()
    }
    added: list[str] = []
    if not root.is_dir():
        return index, added
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        campaign_path = child / "campaign.json"
        if campaign_path.is_file():
            added.extend(_migrate_campaign(index, child, campaign_path))
            continue
        manifest_path = child / "manifest.json"
        if not manifest_path.is_file():
            continue
        if str(child) in indexed_dirs or child.name in index:
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            continue
        index.register(
            child.name,
            child,
            scale=manifest.get("scale", 0.0),
            seed=manifest.get("seed", 0),
            status=STATUS_COMPLETE,
        )
        added.append(child.name)
    return index, added


def _migrate_campaign(index: StudyIndex, child: Path, campaign_path: Path) -> list[str]:
    """Index one campaign archive directory and its member epochs.

    Re-runs are additive (:func:`register_campaign` with ``adopt``): an
    already-indexed campaign only gains entries for epochs that appeared
    since the last migration (a resumed/extended archive), never losing
    or rewriting existing ones.
    """
    try:
        document = json.loads(campaign_path.read_text())
    except (OSError, ValueError):
        return []
    if not isinstance(document, dict) or not str(
        document.get("format", "")
    ).startswith("ecn-udp-campaign/"):
        return []
    spec = document.get("spec", {}) if isinstance(document.get("spec"), dict) else {}
    scale = spec.get("scale", 0.0)
    seed = spec.get("seed", 0)
    epochs_root = child / "epochs"
    epoch_names = (
        sorted(
            p.name
            for p in epochs_root.iterdir()
            if p.is_dir()
            and p.name.startswith("epoch-")
            and (p / "manifest.json").is_file()
        )
        if epochs_root.is_dir()
        else []
    )
    return register_campaign(
        index, child, epoch_names, adopt=True, scale=scale, seed=seed, status=STATUS_COMPLETE
    )


def register_campaign(
    index: StudyIndex, directory: Path, epoch_names: list[str], *, adopt: bool, **entry
) -> list[str]:
    """Index a campaign archive and its member epochs; returns new ids.

    The campaign gets a ``kind: campaign`` entry naming its epochs, and
    each epoch archive a ``campaign:`` entry, so ``ecnudp studies`` and
    ``report --run-id`` can address individual epochs.  ``entry`` holds
    the fields every one of them shares.  A served campaign
    (``adopt=False``) writes every entry.  Adopting an archive found on
    disk (``adopt=True``) is additive: an already-indexed epoch keeps
    its entry, and the campaign's own entry is written only when it is
    missing or names other epochs, and not at all when its directory is
    already indexed under another run id.
    """
    epoch_ids = [f"{directory.name}/{name}" for name in epoch_names]
    existing = index.get(directory.name)
    added: list[str] = []
    if not adopt or (
        (
            existing is None
            or existing.get("kind") != "campaign"
            or existing.get("epochs") != epoch_ids
        )
        and (existing is not None or directory not in map(index.directory, index.entries()))
    ):
        index.register(directory.name, directory, **entry, kind="campaign", epochs=epoch_ids)
        if existing is None:
            added.append(directory.name)
    for name, epoch_id in zip(epoch_names, epoch_ids):
        if adopt and epoch_id in index:
            continue
        index.register(
            epoch_id, directory / "epochs" / name, **entry, campaign=directory.name
        )
        added.append(epoch_id)
    return added
