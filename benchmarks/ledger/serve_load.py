"""Drive ``ecnudp serve`` as a subprocess with a closed-loop client.

A stdlib asyncio HTTP/1.1 client (one request per connection, the way
the server speaks) and a server handle whose ``stop`` always leaves no
process behind: graceful ``POST /admin/shutdown`` first, then SIGKILL
to the server's whole process group, which holds its worker pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
POLL_INTERVAL_S = 0.02
#: A served study taking longer than this counts as failed.
STUDY_TIMEOUT_S = 120.0
TERMINAL = ("complete", "failed", "cancelled")


async def request(port: int, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One HTTP exchange; returns ``(status, payload bytes)``."""

    async def exchange():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            data = json.dumps(body).encode() if body is not None else b""
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
                f"Content-Length: {len(data)}\r\n\r\n"
            )
            writer.write(head.encode() + data)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    raw = await asyncio.wait_for(exchange(), REQUEST_TIMEOUT_S)
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


async def request_json(port: int, method: str, path: str, body=None) -> tuple[int, dict]:
    status, payload = await request(port, method, path, body)
    return status, json.loads(payload) if payload else {}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``ecnudp serve`` subprocess; ``boot_s`` is spawn to first healthy 200."""

    def __init__(self, data_dir: Path, stderr_path: Path, env: dict, workers: int, max_concurrent: int) -> None:
        self.port = free_port()
        self._stderr = open(stderr_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port),
                "--workers", str(workers),
                "--max-concurrent", str(max_concurrent),
                "--data-dir", str(data_dir),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._stderr,
            env=env,
            start_new_session=True,
        )
        try:
            asyncio.run(self._wait_healthy())
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    async def _wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode} while booting")
            with contextlib.suppress(OSError, asyncio.TimeoutError, IndexError, ValueError):
                status, _ = await request(self.port, "GET", "/healthz")
                if status == 200:
                    return
            await asyncio.sleep(0.01)
        raise RuntimeError(f"server not healthy after {BOOT_TIMEOUT_S:.0f}s")

    def stop(self) -> None:
        """Graceful shutdown, then kill whatever of the group is left."""
        try:
            if self.proc.poll() is None:
                with contextlib.suppress(OSError, asyncio.TimeoutError, IndexError, ValueError):
                    asyncio.run(request(self.port, "POST", "/admin/shutdown"))
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            self._stderr.close()


async def closed_loop(
    port: int,
    submissions: Iterator[dict],
    clients: int,
    deadline: float | None,
) -> tuple[list[dict], float]:
    """Each client submits, polls to a terminal status, fetches
    ``summary.json``, and only then submits again.

    Clients draw from ``submissions`` until it is exhausted or
    ``deadline`` (``time.monotonic``) passes; studies in flight then
    finish.  Returns one record per submission and the loop's wall
    time.
    """
    records: list[dict] = []

    def next_submission() -> dict | None:
        if deadline is not None and time.monotonic() >= deadline:
            return None
        return next(submissions, None)

    async def client(tenant: str) -> None:
        while (submission := next_submission()) is not None:
            record = {"submission": submission, "tenant": tenant}
            records.append(record)
            started = time.perf_counter()
            status, body = await request_json(
                port, "POST", "/studies", {**submission["params"], "tenant": tenant}
            )
            record["submit_status"] = status
            record["submit_ms"] = (time.perf_counter() - started) * 1000
            if status != 202:
                continue
            run_id = body["run_id"]
            record["run_id"] = run_id
            state = None
            while time.perf_counter() - started < STUDY_TIMEOUT_S:
                await asyncio.sleep(POLL_INTERVAL_S)
                _, described = await request_json(port, "GET", f"/studies/{run_id}")
                state = described.get("status")
                if state in TERMINAL:
                    break
            record["status"] = state
            if state != "complete":
                continue
            record["latency_s"] = time.perf_counter() - started
            fetch_started = time.perf_counter()
            status, _ = await request(
                port, "GET", f"/studies/{run_id}/artifacts/summary.json"
            )
            record["fetch_ms"] = (time.perf_counter() - fetch_started) * 1000
            record["fetch_status"] = status

    started = time.perf_counter()
    await asyncio.gather(*(client(f"tenant-{index}") for index in range(clients)))
    return records, time.perf_counter() - started


async def fetch_archives(port: int, records: list[dict]) -> None:
    """Attach each completed run's served ``traces.json`` and
    ``traceroutes.json`` bytes to its record (``None`` if not 200)."""
    for record in records:
        if record.get("status") != "complete":
            continue
        parts = []
        for name in ("traces.json", "traceroutes.json"):
            status, payload = await request(
                port, "GET", f"/studies/{record['run_id']}/artifacts/{name}"
            )
            parts.append(payload if status == 200 else None)
        record["archive"] = tuple(parts)
