"""Submission validation and the multi-tenant study queue.

The server admits study submissions into a bounded **priority queue**
with per-tenant quotas.  Admission control is explicit backpressure,
not silent buffering: a full queue or an exhausted tenant quota raises
(mapped to ``429`` + ``Retry-After`` by the HTTP layer) instead of
queueing without bound — the paper-scale version of "heavy traffic
from many users" is useless if one tenant can wedge the service.

Ordering is total and deterministic: higher ``priority`` first, FIFO
by admission sequence within a priority.  The queue is a plain value
store with a :meth:`~StudyQueue.snapshot`/:meth:`~StudyQueue.restore`
pair, which is what graceful shutdown persists and restart resumes —
run ids survive a restart, so a submitted study is executed exactly
once even across a server generation.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

from ..campaign.archive import CAMPAIGN_FIELDS, CampaignError, CampaignSpec
from ..spec import StudySpec, ValidationError, integer

#: Version tag for persisted queue snapshots.
QUEUE_FORMAT = "ecn-udp-queue/1"

#: Inclusive bounds on a submission's priority knob.
PRIORITY_MIN, PRIORITY_MAX = -10, 10

#: Upper bound on epochs per campaign submission.  Campaigns are
#: *recurring*: re-submitting the same campaign ``id`` extends the
#: archive by another batch of epochs, so the cap bounds one grant of
#: queue time, not the campaign's lifetime length.
MAX_CAMPAIGN_EPOCHS = 32


class QueueFull(RuntimeError):
    """The global queue depth is exhausted (back off and retry)."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"study queue is full ({depth} deep)")
        self.retry_after = retry_after


class QuotaExceeded(RuntimeError):
    """One tenant holds its full quota of queued + running studies."""

    def __init__(self, tenant: str, quota: int, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is at its quota of {quota} queued/running studies"
        )
        self.tenant = tenant
        self.retry_after = retry_after


def _validate_dirname(value, name: str) -> str:
    """A run or campaign id: it becomes a directory under the results root."""
    if (
        not isinstance(value, str)
        or not value
        or len(value) > 64
        or not all(c.isalnum() or c in "-_." for c in value)
        or value.startswith(".")
    ):
        raise ValidationError(
            f"{name} must be <=64 chars of [alnum - _ .], not starting "
            f"with '.': {value!r}"
        )
    return value


def validate_tenant(tenant) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise ValidationError(f"tenant must be a non-empty string: {tenant!r}")
    if len(tenant) > 64 or not all(c.isalnum() or c in "-_." for c in tenant):
        raise ValidationError(
            f"tenant must be <=64 chars of [alnum - _ .]: {tenant!r}"
        )
    return tenant


def validate_priority(priority) -> int:
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ValidationError(f"priority must be an integer: {priority!r}")
    if not PRIORITY_MIN <= priority <= PRIORITY_MAX:
        raise ValidationError(
            f"priority must be in [{PRIORITY_MIN}, {PRIORITY_MAX}]: {priority!r}"
        )
    return priority


@dataclass(frozen=True)
class Submission:
    """One admitted study or campaign: identity + tenancy + its spec."""

    run_id: str
    tenant: str
    spec: StudySpec
    priority: int = 0
    #: Admission sequence number: the FIFO tiebreak within a priority,
    #: stable across persistence so restarts preserve ordering.
    seq: int = 0
    #: Set when the submission is a longitudinal campaign rather than a
    #: single study (``campaign.study`` is ``spec``): run ``epochs``
    #: more epochs in the archive named ``campaign_id``.  Re-submitting
    #: an id resumes and extends that archive (the recurring-job
    #: idiom); ``None`` names it after the run id — a one-shot campaign.
    campaign: CampaignSpec | None = None
    epochs: int = 0
    campaign_id: str | None = None

    def sort_key(self) -> tuple[int, int]:
        # heapq is a min-heap: negate priority so higher runs first.
        return (-self.priority, self.seq)

    @classmethod
    def from_params(
        cls, payload, run_id: str, tenant: str, priority: int = 0, seq: int = 0
    ) -> "Submission":
        """Validate a params document: a POST /studies body without
        ``tenant`` and ``priority``.

        The flat keys are a :class:`~repro.spec.StudySpec` (``drift``
        aside: campaigns set it per epoch); an optional ``campaign``
        object adds ``epochs``, ``id`` and the
        :class:`~repro.campaign.CampaignSpec` timeline fields.  Raises
        :class:`ValidationError` naming the first offending field; the
        server maps it to ``400``.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError("submission must be a JSON object")
        fields = dict(payload)
        options = fields.pop("campaign", None)
        if "drift" in fields:
            raise ValidationError("unknown field(s): drift")
        spec = StudySpec.from_json(fields)
        if options is None:
            return cls(run_id, tenant, spec, priority, seq)
        if not isinstance(options, Mapping):
            raise ValidationError(f"campaign must be a JSON object: {options!r}")
        options = dict(options)
        epochs = options.pop("epochs", None)
        if isinstance(epochs, bool) or not isinstance(epochs, int):
            raise ValidationError(f"campaign epochs must be an integer: {epochs!r}")
        if not 1 <= epochs <= MAX_CAMPAIGN_EPOCHS:
            raise ValidationError(
                f"campaign epochs must be in [1, {MAX_CAMPAIGN_EPOCHS}]: {epochs!r}"
            )
        campaign_id = options.pop("id", None)
        if campaign_id is not None:
            _validate_dirname(campaign_id, "campaign id")
        unknown = sorted(str(key) for key in options if key not in CAMPAIGN_FIELDS)
        if unknown:
            raise ValidationError(f"unknown campaign field(s): {', '.join(unknown)}")
        try:
            campaign = CampaignSpec.from_dict({**spec.to_json(), **options})
        except CampaignError as exc:
            raise ValidationError(f"campaign: {exc}") from None
        return cls(run_id, tenant, spec, priority, seq, campaign, epochs, campaign_id)

    def params(self) -> dict:
        """The params document :meth:`from_params` reads back (sparse:
        campaign fields at their defaults are omitted)."""
        payload = self.spec.to_json()
        if self.campaign is not None:
            defaults = CampaignSpec(self.spec).to_dict()
            options = {
                key: value
                for key, value in self.campaign.to_dict().items()
                if value != defaults[key]
            }
            if self.campaign_id is not None:
                options["id"] = self.campaign_id
            payload["campaign"] = {"epochs": self.epochs, **options}
        return payload

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "seq": self.seq,
            "params": self.params(),
        }

    @classmethod
    def from_dict(cls, payload) -> "Submission":
        """Re-validate one persisted queue entry."""
        if not isinstance(payload, Mapping):
            raise ValidationError(f"queue entry must be a JSON object: {payload!r}")
        return cls.from_params(
            payload.get("params", {}),
            run_id=_validate_dirname(payload.get("run_id"), "run_id"),
            tenant=validate_tenant(payload.get("tenant")),
            priority=validate_priority(payload.get("priority", 0)),
            seq=integer(payload, "seq", 0),
        )


@dataclass
class QueueStats:
    """Counters the queue keeps for the ``serve.*`` metrics feed."""

    admitted: int = 0
    rejected_full: int = 0
    rejected_quota: int = 0
    cancelled: int = 0


class StudyQueue:
    """Bounded multi-tenant priority queue of study submissions.

    Not thread-safe by itself: the server mutates it only from the
    event loop thread.  ``depth`` bounds **queued** submissions (the
    running set is bounded separately by the scheduler's concurrency);
    ``tenant_quota`` bounds queued *plus* running studies per tenant,
    so a tenant cannot monopolise the service by keeping the queue
    drained into running slots.
    """

    def __init__(self, depth: int, tenant_quota: int) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1: {depth!r}")
        if tenant_quota < 1:
            raise ValueError(f"tenant quota must be >= 1: {tenant_quota!r}")
        self.depth = depth
        self.tenant_quota = tenant_quota
        self.stats = QueueStats()
        self._heap: list[tuple[tuple[int, int], Submission]] = []
        self._queued: dict[str, Submission] = {}
        self._running: dict[str, str] = {}  # run_id -> tenant
        self._seq = itertools.count()
        #: Hint for ``Retry-After``: a recent average study duration,
        #: updated by the scheduler as runs finish.
        self.avg_run_seconds: float = 5.0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, submission: Submission) -> Submission:
        """Admit a submission (assigning its seq); raises on pressure."""
        if submission.run_id in self._queued or submission.run_id in self._running:
            raise ValidationError(f"duplicate run id {submission.run_id!r}")
        if len(self._queued) >= self.depth:
            self.stats.rejected_full += 1
            raise QueueFull(self.depth, retry_after=self.retry_after())
        tenant_load = self.tenant_load(submission.tenant)
        if tenant_load >= self.tenant_quota:
            self.stats.rejected_quota += 1
            raise QuotaExceeded(
                submission.tenant, self.tenant_quota, retry_after=self.retry_after()
            )
        admitted = dataclasses.replace(submission, seq=next(self._seq))
        heapq.heappush(self._heap, (admitted.sort_key(), admitted))
        self._queued[admitted.run_id] = admitted
        self.stats.admitted += 1
        return admitted

    def retry_after(self) -> float:
        """Seconds a rejected client should wait before retrying: one
        average study duration, floored at 1s so headers stay sane."""
        return max(1.0, round(self.avg_run_seconds, 1))

    # ------------------------------------------------------------------
    # Dispatch / completion
    # ------------------------------------------------------------------
    def pop(self) -> Submission | None:
        """Take the highest-priority queued submission, mark it running."""
        while self._heap:
            _, submission = heapq.heappop(self._heap)
            if submission.run_id not in self._queued:
                continue  # cancelled while queued; skip the stale entry
            del self._queued[submission.run_id]
            self._running[submission.run_id] = submission.tenant
            return submission
        return None

    def finish(self, run_id: str) -> None:
        """Release a running study's quota slot (complete or failed)."""
        self._running.pop(run_id, None)

    def cancel(self, run_id: str) -> Submission | None:
        """Remove a queued-but-unstarted submission; returns it.

        Running studies cannot be cancelled (shards are already in
        flight on the shared pool); callers get ``None`` and decide
        how to report that.
        """
        submission = self._queued.pop(run_id, None)
        if submission is not None:
            self.stats.cancelled += 1
        return submission

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tenant_load(self, tenant: str) -> int:
        queued = sum(1 for s in self._queued.values() if s.tenant == tenant)
        running = sum(1 for t in self._running.values() if t == tenant)
        return queued + running

    @property
    def queued_count(self) -> int:
        return len(self._queued)

    @property
    def running_count(self) -> int:
        return len(self._running)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The queued (not running) submissions as a pure document."""
        entries = [
            submission.to_dict()
            for _, submission in sorted(self._heap)
            if submission.run_id in self._queued
        ]
        return {"format": QUEUE_FORMAT, "entries": entries}

    def restore(self, document) -> list[Submission]:
        """Re-admit a persisted snapshot; returns the restored entries.

        Restores preserve run ids and relative order (priority, then
        original admission sequence).  Quotas and depth are re-checked
        — a snapshot from a server with looser limits degrades to
        rejecting the tail, which the caller reports rather than
        silently dropping.  A malformed document raises
        :class:`ValidationError`, whatever its shape.
        """
        if not isinstance(document, Mapping):
            raise ValidationError("queue snapshot must be a JSON object")
        if document.get("format") != QUEUE_FORMAT:
            raise ValidationError(
                f"not a queue snapshot: format {document.get('format')!r}"
            )
        restored: list[Submission] = []
        entries = document.get("entries", [])
        if not isinstance(entries, list):
            raise ValidationError("queue snapshot entries must be a list")
        for raw in entries:
            submission = Submission.from_dict(raw)
            restored.append(self.submit(submission))
        return restored
