"""Progress aggregation across shards.

Study progress is a ``ProgressFn`` callback, ``(index, total, label)``.
Shards complete out of order and in parallel, so the aggregator folds
per-shard completions into that one channel: each completion advances
a monotone unit counter (traces for trace shards, per-target probes
for traceroute sweeps) and reports the index of the last finished
unit, keeping consumers — the CLI's ``trace N/M`` line in particular —
working for any worker count.
"""

from __future__ import annotations

import logging
import threading

from ..core.measurement import ProgressFn
from .shard import Shard

logger = logging.getLogger("repro.runner")


class ProgressAggregator:
    """Fold unordered shard completions into a ``ProgressFn`` stream.

    A unit-count overflow (a shard reported twice, or a mis-planned
    total) is logged as a warning, and the displayed count is clamped
    so consumers never see ``N+1/N``.
    """

    def __init__(self, progress: ProgressFn | None, total_units: int) -> None:
        self._progress = progress
        self._total = total_units
        self._done = 0
        # Completions arrive from whichever thread collects futures;
        # the lock keeps the counter and callback ordering coherent.
        self._lock = threading.Lock()

    def shard_completed(self, shard: Shard, units: int) -> None:
        """Record ``units`` finished units from ``shard``."""
        with self._lock:
            if self._done + units > self._total:
                # An overflow means the shard plan and the completions
                # disagree — a double-reported shard or a wrong total.
                # The clamp below keeps the display sane, but the
                # bookkeeping bug must surface.
                logger.warning(
                    f"progress overflow: {self._done} done + {units} from "
                    f"shard {shard.shard_id} ({shard.label()}) exceeds "
                    f"total {self._total}"
                )
            self._done = min(self._done + units, self._total)
            if self._progress is not None and units > 0:
                self._progress(self._done - 1, self._total, shard.label())
