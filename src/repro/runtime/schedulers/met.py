"""Minimum execution time (MET) — O(n) in ready-queue length.

Every ready task is examined (hence the linear complexity the paper
reports); each is placed on the idle supporting PE with the smallest
expected execution time.  Ties break toward the lower PE id for
determinism.

:class:`PowerAwareMETScheduler` is the framework-extension hook for the
paper's future-work "power aware heuristics": it minimizes expected energy
(time × active power) instead of time, steering work toward efficient PEs
such as LITTLE cores when their slowdown is smaller than their power
advantage.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler


class METScheduler(Scheduler):
    name = "met"

    def _cost(self, task: TaskInstance, handler: ResourceHandler, est: float) -> float:
        return est

    def _cost_multipliers(self, available) -> list[float] | None:
        """Per-pool cost multipliers for the compiled kernel (None = raw
        estimates, the plain-MET cost)."""
        return None

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        # (position-in-handlers, handler) pairs so cached estimate rows can
        # be indexed positionally as the idle pool shrinks.  FAILED PEs are
        # never IDLE, so the pool excludes them by construction.
        available = self.usable_idle(ready, handlers)
        if not available:
            return []
        self._sync_row_cache(handlers)
        rows = self._est_rows
        kern = self._kernels
        if kern is not None:
            pairs = kern.met_pass(
                ready, rows, self._est_fallback(handlers),
                handlers, [i for i, _h in available],
                self._cost_multipliers(available),
            )
            return [Assignment(task, handlers[i]) for task, i in pairs]
        estimate_row = self.estimate_row
        cost = self._cost
        assignments: list[Assignment] = []
        for task in ready:
            hit = rows.get(id(task.node))
            row = hit[1] if hit is not None else estimate_row(task, handlers)
            best: tuple[float, int] | None = None
            best_pos = -1
            for pos, (i, handler) in enumerate(available):
                est = row[i]
                if est is None:
                    continue
                key = (cost(task, handler, est), handler.pe_id)
                if best is None or key < best:
                    best = key
                    best_pos = pos
            if best_pos >= 0:
                _i, handler = available.pop(best_pos)
                assignments.append(Assignment(task, handler))
                if not available:
                    break
        return assignments


class PowerAwareMETScheduler(METScheduler):
    name = "met_power"

    def _cost(self, task: TaskInstance, handler: ResourceHandler, est: float) -> float:
        return est * handler.pe.pe_type.active_power_w

    def _cost_multipliers(self, available) -> list[float] | None:
        return [h.pe.pe_type.active_power_w for _i, h in available]
