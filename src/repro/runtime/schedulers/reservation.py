"""Reservation-queue scheduling — the paper's future-work extension.

"In the future, we will incorporate task reservation queues on each PE to
reduce the impact of the scheduling overhead" (Sec. III-C) and "expand our
framework to support abstractions like PE-level work queues to enable
lower-overhead task dispatch" (Sec. V).

With reservation enabled, the policy may book a ready task onto a *busy*
PE (up to :data:`QUEUE_DEPTH` outstanding per PE); the resource manager pulls
its next task directly from its local queue on completion, so the PE never
idles across the workload manager's scheduling pass.  Placement follows
earliest-estimated-finish across each PE's existing bookings.

The reservation ablation (``repro.experiments.ablations``) compares this
against plain FRFS/EFT dispatch on a Fig. 10 workload.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import _IDLE, ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler

#: tasks one PE may hold at once: the running one plus its bookings
QUEUE_DEPTH = 4


class ReservationEFTScheduler(Scheduler):
    name = "eft_reserve"
    uses_reservation = True

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        avail: list[float] = []
        slots: list[int] = []
        open_slots = 0
        depth = QUEUE_DEPTH
        for h in handlers:
            if h.failed:
                # A failed PE accepts neither dispatch nor bookings.
                avail.append(float("inf"))
                free_slots = 0
            elif h.status is _IDLE:
                avail.append(now)
                free_slots = depth
            else:
                free = h.estimated_free_time
                avail.append(free if free > now else now)
                free_slots = depth - 1 - len(h.reservation_queue)
                if free_slots < 0:
                    free_slots = 0
            slots.append(free_slots)
            open_slots += free_slots
        assignments: list[Assignment] = []
        estimate_row = self.estimate_row
        inf = float("inf")
        for task in ready:
            if open_slots == 0:
                break
            row = estimate_row(task, handlers)
            best_i = -1
            best_finish = inf
            for i, est in enumerate(row):
                if est is None or slots[i] <= 0:
                    continue
                finish = avail[i] + est
                if finish < best_finish:
                    best_finish = finish
                    best_i = i
            if best_i < 0:
                continue
            avail[best_i] = best_finish
            slots[best_i] -= 1
            open_slots -= 1
            assignments.append(Assignment(task, handlers[best_i]))
        return assignments


class ReservationFRFSScheduler(Scheduler):
    """FRFS with reservation: FIFO tasks onto the least-loaded supporting PE."""

    name = "frfs_reserve"
    uses_reservation = True

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        depth = QUEUE_DEPTH
        # ``depth`` is the exclusive load bound below, so a failed PE pinned
        # at ``depth`` can never be selected.
        load = [
            depth if h.failed
            else 0 if h.status is _IDLE
            else 1 + len(h.reservation_queue)
            for h in handlers
        ]
        assignments: list[Assignment] = []
        support_row = self.support_row
        for task in ready:
            row = support_row(task, handlers)
            best_i = -1
            best_load = depth  # exclusive bound
            for i, pe_load in enumerate(load):
                if pe_load >= best_load:
                    continue
                if row[i]:
                    best_i = i
                    best_load = pe_load
                    if pe_load == 0:
                        break
            if best_i < 0:
                continue
            load[best_i] += 1
            assignments.append(Assignment(task, handlers[best_i]))
        return assignments
