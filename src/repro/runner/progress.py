"""Progress aggregation across shards.

``MeasurementApplication`` reports progress through a ``ProgressFn``
callback, one call per trace.  Shards complete out of order and in
parallel, so the aggregator folds per-shard completions into that
same channel: each completion advances a monotone unit counter
(traces for trace shards, per-target probes for traceroute sweeps)
and reports the index of the last finished unit, keeping consumers —
the CLI's ``trace N/M`` line in particular — working for any worker
count.
"""

from __future__ import annotations

import logging
import threading

from ..core.measurement import ProgressFn
from .shard import Shard

logger = logging.getLogger("repro.runner")


class ProgressOverflowError(RuntimeError):
    """More units reported done than the campaign planned (strict mode)."""


class ProgressAggregator:
    """Fold unordered shard completions into a ``ProgressFn`` stream.

    ``strict=True`` turns unit-count overflows (a shard reported twice,
    or mis-planned totals) into :class:`ProgressOverflowError` instead
    of a logged warning; the displayed count is clamped either way so
    consumers never see ``N+1/N``.
    """

    def __init__(
        self,
        progress: ProgressFn | None,
        total_units: int,
        strict: bool = False,
    ) -> None:
        self._progress = progress
        self._total = total_units
        self._done = 0
        self._strict = strict
        # Completions arrive from whichever thread collects futures;
        # the lock keeps the counter and callback ordering coherent.
        self._lock = threading.Lock()

    @property
    def done_units(self) -> int:
        return self._done

    def shard_started(self, shard: Shard) -> None:
        """Announce dispatch (index of the first not-yet-done unit)."""
        if self._progress is None:
            return
        with self._lock:
            # After the last unit completes ``_done == _total``, and a
            # late dispatch announcement (a retry racing the final
            # completion) would display as ``N+1/N``.  Clamp to the
            # last valid index — consumers render ``index + 1``.
            index = min(self._done, self._total - 1) if self._total > 0 else 0
            self._progress(index, self._total, shard.label())

    def shard_completed(self, shard: Shard, units: int) -> None:
        """Record ``units`` finished units from ``shard``."""
        with self._lock:
            if self._done + units > self._total:
                # An overflow means the shard plan and the completions
                # disagree — a double-reported shard or a wrong total.
                # Never swallow it silently: the clamp below keeps the
                # display sane, but the bookkeeping bug must surface.
                message = (
                    f"progress overflow: {self._done} done + {units} from "
                    f"shard {shard.shard_id} ({shard.label()}) exceeds "
                    f"total {self._total}"
                )
                if self._strict:
                    raise ProgressOverflowError(message)
                logger.warning("%s", message)
            self._done = min(self._done + units, self._total)
            if self._progress is not None and units > 0:
                self._progress(self._done - 1, self._total, shard.label())
