"""First ready-first start (FRFS) — the paper's reference simple policy.

Tasks are considered strictly in ready order; each is placed on the first
idle PE that supports it.  One pass over the idle-PE list per dispatched
task keeps the policy's complexity proportional to the number of PEs in
the emulated SoC (the paper measures a flat ≈2.5 µs at 5 PEs), independent
of ready-queue length — the property that makes FRFS win Fig. 10.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler


class FRFSScheduler(Scheduler):
    name = "frfs"

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        # (position-in-handlers, handler) pairs; removing a dispatched PE
        # keeps the remaining idle PEs in original order, so "first idle
        # supporting PE" is unchanged.  FAILED is terminal and never IDLE,
        # so failed PEs are excluded by construction.
        idle = self.usable_idle(ready, handlers)
        if not idle:
            return []
        self._sync_row_cache(handlers)
        rows = self._support_rows
        assignments: list[Assignment] = []
        support_row = self.support_row
        for task in ready:
            hit = rows.get(id(task.node))
            row = hit[1] if hit is not None else support_row(task, handlers)
            for pos, (i, handler) in enumerate(idle):
                if row[i]:
                    assignments.append(Assignment(task, handler))
                    del idle[pos]
                    break
            if not idle:
                break
        return assignments
