"""RANDOM — uniform choice among idle supporting PEs (baseline policy)."""

from __future__ import annotations

import numpy as np

from repro.appmodel.instance import TaskInstance
from repro.common.rng import default_rng
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, ExecutionTimeOracle, Scheduler


class RandomScheduler(Scheduler):
    name = "random"

    def __init__(
        self,
        oracle: ExecutionTimeOracle | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(oracle)
        self.rng = rng if rng is not None else default_rng()

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        # FAILED PEs are never IDLE, so they cannot be drawn.  A PE no ready
        # task supports is never a candidate, so leaving it out of the pool
        # changes neither the draws nor what they select.
        available = self.usable_idle(ready, handlers)
        if not available:
            return []
        self._sync_row_cache(handlers)
        rows = self._support_rows
        assignments: list[Assignment] = []
        support_row = self.support_row
        for task in ready:
            hit = rows.get(id(task.node))
            row = hit[1] if hit is not None else support_row(task, handlers)
            # Candidate positions within ``available`` follow handler order,
            # so the k-th candidate is the same PE whatever else is idle.
            candidates = [
                pos for pos, (i, _h) in enumerate(available) if row[i]
            ]
            if not candidates:
                continue
            pick = candidates[int(self.rng.integers(len(candidates)))]
            assignments.append(Assignment(task, available.pop(pick)[1]))
            if not available:
                break
        return assignments
