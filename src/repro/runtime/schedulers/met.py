"""Minimum execution time (MET) — O(n) in ready-queue length.

Each ready task, in FIFO order, is placed on the idle supporting PE with
the smallest expected execution time, which then leaves the pool; the pass
ends when no usable idle PE is left.  Ties break toward the lower PE id
for determinism.  The modelled cost examines every ready task (the linear
complexity the paper reports); the host visits only the tasks an open PE
can take: over the workload manager's ready list it walks the capability
lanes some open PE accepts (:func:`~repro.runtime.schedulers.base.open_lanes`,
shared with EFT's FIFO pass) and reads each node's compact row
(:meth:`~repro.runtime.schedulers.base.Scheduler.estimate_pairs`).

:class:`PowerAwareMETScheduler` is the framework-extension hook for the
paper's future-work "power aware heuristics": it minimizes expected energy
(time × active power) instead of time, steering work toward efficient PEs
such as LITTLE cores when their slowdown is smaller than their power
advantage.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler, open_lanes


class METScheduler(Scheduler):
    name = "met"

    def _cost(self, task: TaskInstance, handler: ResourceHandler, est: float) -> float:
        return est

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        usable = self.usable_idle(ready, handlers)
        if not usable:
            return []
        self._sync_row_cache(handlers)
        # True while a usable idle PE is still free to take a dispatch;
        # FAILED PEs are never IDLE, so they are never open.
        open_pe = [False] * len(handlers)
        for i, _h in usable:
            open_pe[i] = True
        remaining = len(usable)
        compact = self._est_pairs
        estimate_pairs = self.estimate_pairs
        cost = self._cost
        assignments: list[Assignment] = []
        for task in open_lanes(ready, usable, open_pe):
            pairs = compact.get(id(task.node))
            if pairs is None:
                pairs = estimate_pairs(task, handlers)
            best: tuple[float, int] | None = None
            best_i = -1
            for i, est in pairs:
                if open_pe[i]:
                    handler = handlers[i]
                    key = (cost(task, handler, est), handler.pe_id)
                    if best is None or key < best:
                        best = key
                        best_i = i
            if best_i >= 0:
                open_pe[best_i] = False
                assignments.append(Assignment(task, handlers[best_i]))
                remaining -= 1
                if not remaining:
                    break
        return assignments


class PowerAwareMETScheduler(METScheduler):
    name = "met_power"

    def _cost(self, task: TaskInstance, handler: ResourceHandler, est: float) -> float:
        return est * handler.pe.pe_type.active_power_w
