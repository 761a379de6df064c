"""The long-lived study server: sockets, lifecycle, persistence.

:class:`StudyServer` assembles the subsystem — queue, scheduler,
shared worker pool, index, HTTP app — and owns its lifecycle:

* **startup** resumes any queue snapshot a previous generation
  persisted (run ids survive, so a submitted study executes exactly
  once across restarts), then begins accepting connections;
* **steady state** is one asyncio task per connection plus the
  scheduler's dispatch loop; studies execute in worker threads and,
  when a pool is configured, fan their shards onto one
  :class:`~repro.runner.SharedWorkerPool` shared by every study;
* **graceful shutdown** (SIGTERM/SIGINT, ``POST /admin/shutdown``, or
  :meth:`shutdown`) stops accepting submissions (503), drains running
  studies to completion, persists the still-queued remainder to
  ``queue.json`` atomically, and tears the pool down.

Everything the server persists lives under one data directory, which
doubles as the results tree: ``index.json`` (run-id manifest),
``queue.json`` (only between generations), and one archive directory
per run.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import signal
from dataclasses import dataclass
from pathlib import Path

from ..ioutil import atomic_write_text
from ..obs import EventLog, MetricsRegistry
from .app import StreamProgress, StudyApp
from .http import (
    ChunkedWriter,
    HttpError,
    Response,
    read_request,
    write_response,
)
from .index import STATUS_QUEUED, migrate_results_root
from .queue import StudyQueue
from .scheduler import RunHandle, StudyScheduler

logger = logging.getLogger("repro.serve")


@dataclass
class ServeConfig:
    """Knobs of one server instance (the CLI flags, as a value)."""

    host: str = "127.0.0.1"
    port: int = 8750
    #: Worker processes in the shared pool; ``0`` disables the pool
    #: and runs studies sequentially in threads.
    workers: int = 2
    #: Queued-submission bound (running studies tracked separately).
    queue_depth: int = 16
    #: Max queued + running studies per tenant.
    tenant_quota: int = 4
    #: Studies executing at once.
    max_concurrent: int = 2
    #: Results tree: archives + index.json + queue.json.
    data_dir: str = "results"


class StudyServer:
    """Wire the serve subsystem together over one data directory."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = MetricsRegistry()
        #: Server-wide live event log (wall-clock side): serve
        #: admissions/rejections, scheduler run lifecycle, and runner
        #: shard lifecycle all narrate into this one ring, which
        #: ``GET /events`` serves with a since-cursor.
        self.events = EventLog()
        # Adopt any pre-index archives so they are enumerable/servable.
        self.index, migrated = migrate_results_root(self.data_dir)
        if migrated:
            logger.info("indexed %d pre-index archive(s)", len(migrated))
        self.queue = StudyQueue(
            depth=config.queue_depth, tenant_quota=config.tenant_quota
        )
        self.pool = None
        if config.workers > 0:
            from ..runner import SharedWorkerPool

            self.pool = SharedWorkerPool(config.workers)
        self.scheduler = StudyScheduler(
            queue=self.queue,
            index=self.index,
            studies_dir=self.data_dir,
            pool=self.pool,
            study_workers=config.workers,
            max_concurrent=config.max_concurrent,
            metrics=self.metrics,
            events=self.events,
        )
        self.app = StudyApp(
            queue=self.queue,
            scheduler=self.scheduler,
            index=self.index,
            studies_dir=self.data_dir,
            on_shutdown=self.request_shutdown,
            events=self.events,
        )
        self._server: asyncio.Server | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._stop = asyncio.Event()
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_path(self) -> Path:
        return self.data_dir / "queue.json"

    @property
    def port(self) -> int:
        """The bound port (useful when configured with port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Resume persisted state and start accepting connections."""
        resumed = self._resume_queue()
        if resumed:
            logger.info("resumed %d queued studies from %s", resumed, self.queue_path)
        self._scheduler_task = asyncio.create_task(self.scheduler.run_forever())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.scheduler.kick()
        self.events.emit(
            "serve-start",
            "info",
            port=self.port,
            workers=self.config.workers,
            resumed=resumed,
        )
        logger.info(
            "serving on %s:%d (workers=%d queue_depth=%d tenant_quota=%d)",
            self.config.host,
            self.port,
            self.config.workers,
            self.config.queue_depth,
            self.config.tenant_quota,
        )

    def _resume_queue(self) -> int:
        """Restore a persisted queue snapshot; returns entries resumed."""
        if not self.queue_path.exists():
            return 0
        try:
            document = json.loads(self.queue_path.read_text())
            restored = self.queue.restore(document)
        except (OSError, ValueError, RuntimeError) as exc:
            logger.warning("cannot resume queue from %s: %s", self.queue_path, exc)
            return 0
        for submission in restored:
            handle = self.scheduler.track(submission, status=STATUS_QUEUED)
            handle.post({"type": "resumed", "run_id": submission.run_id})
            # Re-register defensively: the entry normally already
            # exists from the generation that accepted the submission.
            self.index.register(
                submission.run_id,
                self.data_dir / submission.run_id,
                scale=submission.spec.scale,
                seed=submission.spec.seed,
                status=STATUS_QUEUED,
                tenant=submission.tenant,
            )
            self.metrics.incr("serve.resumed")
        # The snapshot is consumed: it exists only between a graceful
        # shutdown and the next startup, so a later crash cannot replay
        # studies that already ran.
        self.queue_path.unlink(missing_ok=True)
        return len(restored)

    def request_shutdown(self) -> None:
        """Arm graceful shutdown (signal handlers, /admin/shutdown)."""
        self.app.draining = True
        self._stop.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a shutdown request, then drain and stop."""
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain running studies, persist the queue, stop the world."""
        if self._stopped:
            return
        self._stopped = True
        self.app.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: in-flight studies run to completion (their archives
        # must be whole); the still-queued tail is persisted instead.
        await self.scheduler.drain()
        snapshot = self.queue.snapshot()
        if snapshot["entries"]:
            atomic_write_text(self.queue_path, json.dumps(snapshot, indent=2))
            logger.info(
                "persisted %d queued studies to %s",
                len(snapshot["entries"]),
                self.queue_path,
            )
        else:
            self.queue_path.unlink(missing_ok=True)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
        if self.pool is not None:
            self.pool.shutdown()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await write_response(writer, Response.error(exc.status, exc.message))
                return
            if request is None:
                return
            try:
                result = await self.app.dispatch(request)
            except HttpError as exc:
                result = Response.error(exc.status, exc.message)
            except Exception as exc:  # noqa: BLE001 - connection boundary
                logger.exception("handler failed for %s %s", request.method, request.path)
                result = Response.error(500, f"{type(exc).__name__}: {exc}")
            if isinstance(result, StreamProgress):
                await self._stream_progress(writer, result.handle)
            else:
                await write_response(writer, result)
        except (ConnectionResetError, BrokenPipeError):
            # Peer went away mid-response: nothing to salvage on a
            # one-request connection.  (CancelledError propagates — the
            # server is being torn down.)
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _stream_progress(
        self, writer: asyncio.StreamWriter, handle: RunHandle
    ) -> None:
        """Chunk out a run's event feed until the run finishes."""
        chunked = ChunkedWriter(writer)
        await chunked.start(content_type="application/x-ndjson")
        offset = 0
        while True:
            while offset < len(handle.events):
                event = handle.events[offset]
                offset += 1
                await chunked.send(json.dumps(event) + "\n")
            if handle.done:
                break
            waiter = handle.changed
            await waiter.wait()
        await chunked.finish()


async def run_server(config: ServeConfig) -> None:
    """Entry point used by ``ecnudp serve``: serve until signalled."""
    server = StudyServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, server.request_shutdown)
    await server.serve_until_shutdown()
