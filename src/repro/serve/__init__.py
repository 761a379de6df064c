"""repro.serve — the multi-tenant asynchronous study server.

The sharded runner (:mod:`repro.runner`) executes one study per
process; this package wraps it as a **long-lived service**: an asyncio
HTTP/1.1 front end (stdlib only — no new runtime dependencies) that
accepts study submissions, queues them with priorities and per-tenant
quotas, multiplexes concurrent studies over one shared worker pool,
streams per-run progress, and serves each run's archived artefacts and
dashboard.  ``ecnudp serve`` is the CLI face.

Layout:

- :mod:`~repro.serve.http` — minimal HTTP/1.1 over asyncio streams
- :mod:`~repro.serve.queue` — validation + bounded multi-tenant
  priority queue with explicit backpressure
- :mod:`~repro.serve.scheduler` — concurrent study execution, world
  caching, progress fan-in
- :mod:`~repro.serve.app` — the route table
- :mod:`~repro.serve.server` — lifecycle: resume, drain, persist
- :mod:`~repro.serve.index` — the results tree's run-id manifest

Served runs are **bit-identical** to direct ``Study.run`` output: the
server adds identity and scheduling around the study pipeline, never
inside it.
"""

from .http import ChunkedWriter, HttpError, Request, Response, read_request, write_response
from .index import (
    INDEX_FORMAT,
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    StudyIndex,
    StudyIndexError,
    migrate_results_root,
)
from .queue import (
    QUEUE_FORMAT,
    QueueFull,
    QuotaExceeded,
    StudyQueue,
    StudySpec,
    Submission,
    ValidationError,
    validate_priority,
    validate_tenant,
)
from .scheduler import RunHandle, StudyScheduler, WorldCache
from .server import ServeConfig, StudyServer, run_server

__all__ = [
    "ChunkedWriter",
    "HttpError",
    "INDEX_FORMAT",
    "QUEUE_FORMAT",
    "QueueFull",
    "QuotaExceeded",
    "Request",
    "Response",
    "RunHandle",
    "STATUS_CANCELLED",
    "STATUS_COMPLETE",
    "STATUS_FAILED",
    "STATUS_QUEUED",
    "STATUS_RUNNING",
    "ServeConfig",
    "StudyIndex",
    "StudyIndexError",
    "StudyQueue",
    "StudyScheduler",
    "StudyServer",
    "StudySpec",
    "Submission",
    "ValidationError",
    "WorldCache",
    "migrate_results_root",
    "read_request",
    "run_server",
    "validate_priority",
    "validate_tenant",
    "write_response",
]
