"""HTTP API of the study server.

Route table (all JSON unless noted):

* ``POST /studies`` — submit a study; ``202`` + run id, ``400`` on
  validation failure, ``429`` + ``Retry-After`` under backpressure
  (full queue or exhausted tenant quota), ``503`` while draining.
* ``GET /studies`` — enumerate runs (live registry merged over the
  persistent index).
* ``GET /studies/<id>`` — one run's status.
* ``DELETE /studies/<id>`` — cancel a queued-but-unstarted run.
* ``GET /studies/<id>/progress`` — chunked NDJSON stream of progress
  events, live until the run finishes.
* ``GET /studies/<id>/artifacts`` — list archived artefact files.
* ``GET /studies/<id>/artifacts/<path>`` — one artefact's bytes.
* ``GET /studies/<id>/dashboard`` — the run dashboard
  (:mod:`repro.obs.report`), rendered on demand.
* ``GET /metrics`` — ``serve.*`` counters + queue gauges.
* ``GET /healthz`` — liveness + queue/scheduler state.
* ``POST /admin/shutdown`` — begin graceful shutdown (drain + persist).

The tenant of a submission comes from the ``tenant`` body field or the
``X-Tenant`` header.  Responses never leak filesystem paths other than
artefact names scoped under the run's own directory.
"""

from __future__ import annotations

import math
import secrets
from pathlib import Path

from ..obs import PROM_CONTENT_TYPE, render_events_jsonl, render_prometheus
from .http import HttpError, Request, Response
from .index import STATUS_CANCELLED, STATUS_QUEUED, StudyIndex
from .queue import (
    QueueFull,
    QuotaExceeded,
    StudyQueue,
    Submission,
    ValidationError,
    validate_priority,
    validate_tenant,
)
from .scheduler import RunHandle, StudyScheduler

#: Artefact suffix -> Content-Type for GET artifacts.
_ARTIFACT_TYPES = {
    ".json": "application/json",
    ".csv": "text/csv",
    ".txt": "text/plain",
    ".html": "text/html",
    ".md": "text/markdown",
    ".pstats": "application/octet-stream",
}


class StreamProgress:
    """Marker result: stream a run's progress feed (handled by the
    connection loop, which owns the writer)."""

    def __init__(self, handle: RunHandle) -> None:
        self.handle = handle


class StudyApp:
    """Route requests onto the queue/scheduler/index trio."""

    def __init__(
        self,
        queue: StudyQueue,
        scheduler: StudyScheduler,
        index: StudyIndex,
        studies_dir: str | Path,
        on_shutdown=None,
        events=None,
    ) -> None:
        self.queue = queue
        self.scheduler = scheduler
        self.index = index
        self.studies_dir = Path(studies_dir)
        #: Zero-arg callback arming graceful shutdown (server-owned).
        self.on_shutdown = on_shutdown
        #: Server-wide live :class:`~repro.obs.EventLog`; admissions,
        #: rejections and cancellations narrate through it, and
        #: ``GET /events`` serves its since-cursor window.
        self.events = events
        self.draining = False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def dispatch(self, request: Request) -> Response | StreamProgress:
        segments = [part for part in request.path.split("/") if part]
        try:
            return self._route(request, segments)
        except ValidationError as exc:
            return Response.error(400, str(exc))
        except QueueFull as exc:
            return self._too_many("queue-full", str(exc), exc.retry_after)
        except QuotaExceeded as exc:
            return self._too_many("tenant-quota", str(exc), exc.retry_after)

    def _route(self, request: Request, segments: list[str]):
        method = request.method
        if segments == ["healthz"] and method == "GET":
            return self.health()
        if segments == ["metrics"] and method == "GET":
            return self.metrics(request)
        if segments == ["events"] and method == "GET":
            return self.events_feed(request)
        if segments == ["admin", "shutdown"] and method == "POST":
            return self.shutdown()
        if segments[:1] == ["studies"]:
            if len(segments) == 1:
                if method == "POST":
                    return self.submit(request)
                if method == "GET":
                    return self.list_runs()
                raise HttpError(405, f"{method} not allowed on /studies")
            run_id = segments[1]
            rest = segments[2:]
            if not rest:
                if method == "GET":
                    return self.run_status(run_id)
                if method == "DELETE":
                    return self.cancel(run_id)
                raise HttpError(405, f"{method} not allowed on a run")
            if method != "GET":
                raise HttpError(405, f"{method} not allowed on run resources")
            if rest == ["progress"]:
                return self.progress(run_id)
            if rest == ["dashboard"]:
                return self.dashboard(run_id)
            if rest[0] == "artifacts":
                return self.artifacts(run_id, rest[1:])
        raise HttpError(404, f"no route for {method} {request.path}")

    def _too_many(self, cause: str, message: str, retry_after: float) -> Response:
        if self.events:
            self.events.emit(
                "serve-reject",
                "warning",
                cause=cause,
                retry_after=round(retry_after, 3),
            )
        return Response.error(
            429, message, **{"Retry-After": str(int(math.ceil(retry_after)))}
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        if self.draining:
            return Response.error(503, "server is draining for shutdown")
        payload = request.json()
        if not isinstance(payload, dict):
            raise ValidationError("submission must be a JSON object")
        tenant = payload.get("tenant", request.headers.get("x-tenant"))
        tenant = validate_tenant(tenant)
        priority = validate_priority(payload.get("priority", 0))
        run_id = self._mint_run_id()
        submission = Submission.from_params(
            {k: v for k, v in payload.items() if k not in ("tenant", "priority")},
            run_id=run_id,
            tenant=tenant,
            priority=priority,
        )
        admitted = self.queue.submit(submission)  # raises under pressure
        self.index.register(
            run_id,
            self.studies_dir / run_id,
            scale=submission.spec.scale,
            seed=submission.spec.seed,
            status=STATUS_QUEUED,
            tenant=tenant,
        )
        handle = self.scheduler.track(admitted)
        handle.post({"type": "queued", "run_id": run_id, "tenant": tenant})
        self.scheduler.metrics.incr("serve.submitted")
        if self.events:
            self.events.emit(
                "serve-submit",
                "info",
                run_id=run_id,
                tenant=tenant,
                priority=admitted.priority,
            )
        self.scheduler.kick()
        return Response.json(
            {
                "run_id": run_id,
                "status": STATUS_QUEUED,
                "tenant": tenant,
                "priority": admitted.priority,
                "links": {
                    "status": f"/studies/{run_id}",
                    "progress": f"/studies/{run_id}/progress",
                    "artifacts": f"/studies/{run_id}/artifacts",
                    "dashboard": f"/studies/{run_id}/dashboard",
                },
            },
            status=202,
        )

    def _mint_run_id(self) -> str:
        while True:
            run_id = f"run-{secrets.token_hex(4)}"
            if run_id not in self.index and self.scheduler.handle(run_id) is None:
                return run_id

    def list_runs(self) -> Response:
        runs: dict[str, dict] = {}
        for run_id, entry in self.index.entries().items():
            runs[run_id] = {
                "run_id": run_id,
                "status": entry.get("status"),
                "scale": entry.get("scale"),
                "seed": entry.get("seed"),
                **({"tenant": entry["tenant"]} if "tenant" in entry else {}),
            }
        for run_id, handle in self.scheduler.runs.items():
            runs[run_id] = handle.describe()
        ordered = [runs[run_id] for run_id in sorted(runs)]
        return Response.json({"studies": ordered, "count": len(ordered)})

    def run_status(self, run_id: str) -> Response:
        handle = self.scheduler.handle(run_id)
        if handle is not None:
            return Response.json(handle.describe())
        entry = self.index.get(run_id)
        if entry is None:
            raise HttpError(404, f"unknown run id {run_id!r}")
        entry.pop("dir", None)
        return Response.json({"run_id": run_id, **entry})

    def cancel(self, run_id: str) -> Response:
        handle = self.scheduler.handle(run_id)
        entry = self.index.get(run_id)
        if handle is None and entry is None:
            raise HttpError(404, f"unknown run id {run_id!r}")
        cancelled = self.queue.cancel(run_id)
        if cancelled is None:
            raise HttpError(
                409,
                f"run {run_id!r} is not queued (already running or finished); "
                "running studies cannot be cancelled",
            )
        if handle is not None:
            handle.status = STATUS_CANCELLED
            handle.post({"type": "finished", "run_id": run_id, "status": STATUS_CANCELLED})
        try:
            self.index.set_status(run_id, STATUS_CANCELLED)
        except KeyError:
            pass
        self.scheduler.metrics.incr("serve.cancelled")
        if self.events:
            self.events.emit("serve-cancel", "info", run_id=run_id)
        return Response.json({"run_id": run_id, "status": STATUS_CANCELLED})

    def progress(self, run_id: str) -> StreamProgress:
        handle = self.scheduler.handle(run_id)
        if handle is None:
            raise HttpError(404, f"no live run {run_id!r} (completed runs have artifacts)")
        return StreamProgress(handle)

    def artifacts(self, run_id: str, rest: list[str]) -> Response:
        directory = self._run_dir(run_id)
        if not rest:
            files = sorted(
                str(path.relative_to(directory))
                for path in directory.rglob("*")
                if path.is_file()
            )
            return Response.json({"run_id": run_id, "artifacts": files})
        relative = "/".join(rest)
        target = (directory / relative).resolve()
        if not str(target).startswith(str(directory.resolve()) + "/"):
            raise HttpError(404, f"no artifact {relative!r}")
        if not target.is_file():
            raise HttpError(404, f"no artifact {relative!r}")
        content_type = _ARTIFACT_TYPES.get(target.suffix, "application/octet-stream")
        return Response(status=200, body=target.read_bytes(), content_type=content_type)

    def dashboard(self, run_id: str) -> Response:
        directory = self._run_dir(run_id)
        from ..obs.report import load_run_artifacts, render_dashboard_html

        artifacts = load_run_artifacts(directory)
        return Response.text(
            render_dashboard_html(artifacts), content_type="text/html"
        )

    def _run_dir(self, run_id: str) -> Path:
        directory = self.index.directory(run_id)
        if directory is None:
            handle = self.scheduler.handle(run_id)
            if handle is None:
                raise HttpError(404, f"unknown run id {run_id!r}")
            directory = self.studies_dir / run_id
        if not directory.is_dir():
            raise HttpError(
                409, f"run {run_id!r} has no archived artifacts yet"
            )
        return directory

    def health(self) -> Response:
        """Liveness + queue state + worker-pool liveness.

        A configured pool that can no longer execute shards (platform
        probe failed, shut down, or every started worker process died)
        flips the whole endpoint to 503 — orchestrators should restart
        the server rather than queue studies that cannot run.
        """
        payload = {
            "status": "draining" if self.draining else "ok",
            "queued": self.queue.queued_count,
            "running": self.queue.running_count,
            "queue_depth": self.queue.depth,
            "tenant_quota": self.queue.tenant_quota,
        }
        status = 200
        pool = self.scheduler.pool
        if pool is not None:
            pool_state = pool.describe()
            payload["pool"] = pool_state
            if pool_state["lost"]:
                payload["status"] = "degraded"
                status = 503
        return Response.json(payload, status=status)

    def _extra_gauges(self) -> dict:
        """Live queue/scheduler/pool state, as exposition gauges."""
        stats = self.queue.stats
        gauges = {
            "serve.queued": self.queue.queued_count,
            "serve.running": self.queue.running_count,
            "serve.queue_limit": self.queue.depth,
            "serve.admitted_total": stats.admitted,
            "serve.rejected_full_total": stats.rejected_full,
            "serve.rejected_quota_total": stats.rejected_quota,
            "serve.cancelled_total": stats.cancelled,
            "serve.draining": int(self.draining),
        }
        pool = self.scheduler.pool
        if pool is not None:
            pool_state = pool.describe()
            gauges["serve.pool_workers"] = pool_state["workers"]
            gauges["serve.pool_workers_alive"] = pool_state["workers_alive"]
            gauges["serve.pool_rebuilds"] = pool_state["rebuilds"]
            gauges["serve.pool_lost"] = int(pool_state["lost"])
        if self.events:
            gauges["serve.events_next_seq"] = self.events.next_seq
            gauges["serve.events_dropped"] = sum(self.events.dropped().values())
        return gauges

    def metrics(self, request: Request | None = None) -> Response:
        fmt = (request.query.get("format", "json") if request else "json").lower()
        if fmt == "prometheus":
            text = render_prometheus(
                self.scheduler.metrics.snapshot(), extra_gauges=self._extra_gauges()
            )
            return Response.text(text, content_type=PROM_CONTENT_TYPE)
        if fmt != "json":
            raise HttpError(
                400, f"unknown metrics format {fmt!r}: one of json, prometheus"
            )
        snapshot = self.scheduler.metrics.snapshot()
        stats = self.queue.stats
        return Response.json(
            {
                "metrics": snapshot,
                "queue": {
                    "queued": self.queue.queued_count,
                    "running": self.queue.running_count,
                    "admitted": stats.admitted,
                    "rejected_full": stats.rejected_full,
                    "rejected_quota": stats.rejected_quota,
                    "cancelled": stats.cancelled,
                },
            }
        )

    def events_feed(self, request: Request) -> Response:
        """Since-cursor window of the server's live event log (NDJSON).

        ``?since=N`` resumes from stream position ``N`` (default 0 —
        everything still buffered); ``?limit=M`` caps the window.  The
        ``X-Next-Cursor`` header is what a client passes as ``since``
        on its next poll; events that fell off the ring are gone, and a
        cursor beyond the head is clamped back to it.
        """
        if self.events is None:
            raise HttpError(404, "event log is not enabled on this server")
        try:
            since = int(request.query.get("since", "0"))
            limit_text = request.query.get("limit")
            limit = int(limit_text) if limit_text is not None else None
        except ValueError as exc:
            raise HttpError(400, f"since/limit must be integers: {exc}") from None
        if since < 0 or (limit is not None and limit < 0):
            raise HttpError(400, "since/limit must be non-negative")
        window = self.events.since(since, limit=limit)
        if window:
            next_cursor = window[-1]["seq"] + 1
        else:
            next_cursor = min(since, self.events.next_seq)
        body = render_events_jsonl(window)
        return Response(
            status=200,
            body=body.encode(),
            content_type="application/x-ndjson",
            headers={"X-Next-Cursor": str(next_cursor)},
        )

    def shutdown(self) -> Response:
        self.draining = True
        if self.events:
            self.events.emit("serve-shutdown", "warning")
        if self.on_shutdown is not None:
            self.on_shutdown()
        return Response.json({"status": "draining"})
