"""Atomic file writes for study artefacts.

A long-lived study server reads archives while studies are still being
written; a reader must never observe a half-written ``traces.json`` or
``metrics.json``.  Every artefact writer in the repo therefore goes
through these helpers: content lands in a temporary file in the target
directory and is moved into place with :func:`os.replace`, which is
atomic on POSIX and Windows for same-filesystem renames — a concurrent
reader sees either the old complete file or the new complete file,
never a prefix.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open ``path`` for writing such that the write is all-or-nothing.

    Yields a text handle backed by a temporary file alongside the
    target; on clean exit the temp file replaces the target atomically,
    on error it is removed and the target is left untouched.
    """
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        newline=newline,
        encoding="utf-8",
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename)."""
    with atomic_open(path) as handle:
        handle.write(text)
