"""Earliest finish time (EFT) — O(n²), the paper's heavyweight policy.

For each ready task the policy evaluates the finish time on *every* PE —
idle or busy — using per-PE availability estimates that it updates as it
tentatively books tasks within the pass (so the booking of earlier ready
tasks delays the estimates seen by later ones; this cross-task interaction
is what makes the policy quadratic in ready-queue length).  Only decisions
that landed on an actually-idle PE turn into dispatches; bookings onto
busy PEs merely shape subsequent estimates, as in list-scheduling EFT.

That quadratic cost is what the scheduler cost model charges, and it is
unchanged.  The host pays less: a task that cannot take an open PE only
has its booking deferred, and a deferred booking is computed only when a
later task's choice between an open and a busy PE depends on it.  So the
host cost is quadratic only in the bookings some dispatch depends on; the
assignments are those of booking every task (the compiled kernel still
does).

:func:`eft_pass` is that placement loop, shared with the rank-ordered
policies (``heft``, ``cprank``), which differ only in the order they visit
the ready tasks.
"""

from __future__ import annotations

from collections import deque

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler

_INF = float("inf")


def eft_pass(
    policy: Scheduler,
    ready: list[TaskInstance],
    handlers: list[ResourceHandler],
    now: float,
    key=None,
) -> list[Assignment]:
    """One EFT placement pass over ``ready``, in FIFO order or, with
    ``key``, in ``sorted(ready, key=key)`` order.

    The pass is over as soon as every *usable* idle PE (see
    :meth:`Scheduler.usable_idle`) is dispatched; with none, it returns
    before sorting or touching the queue.  ``usable`` is read from
    ``ready`` itself — counts do not depend on visiting order.
    """
    usable = policy.usable_idle(ready, handlers)
    if not usable:
        return []
    policy._sync_row_cache(handlers)
    order = ready if key is None else sorted(ready, key=key)
    kern = policy._kernels
    if kern is not None:
        # The availability prologue and placement loop below, in C: same
        # usable positions, same handler.failed / .estimated_free_time
        # reads, full rows from _est_rows instead of the compact pairs.
        placed = kern.eft_pass(
            order, policy._est_rows, policy._est_fallback(handlers),
            handlers, [i for i, _h in usable], now,
        )
        return [Assignment(task, handlers[i]) for task, i in placed]
    # True while a usable idle PE is still free to take a dispatch.
    open_pe = [False] * len(handlers)
    for i, _h in usable:
        open_pe[i] = True
    idle_remaining = len(usable)
    # Availability estimates, positional over ``handlers``: idle PEs are
    # free now; busy PEs free at their tracked estimate (never in the
    # past).  A positional array + the cached compact rows (only the PEs
    # a node has an estimate on, see Scheduler.estimate_pairs) keep the
    # inner loop to one dict lookup per task and free of columns the task
    # cannot use.  (An idle PE that is not usable falls into the last
    # branch; no task visited below has an estimate for it, so its entry
    # is never read.)
    avail: list[float] = []
    for i, h in enumerate(handlers):
        if open_pe[i]:
            avail.append(now)
        elif h.failed:
            # Failed PEs never win the finish-time comparison (inf + est
            # is never < best), so the inner loop needs no extra branch.
            avail.append(_INF)
        else:
            free = h.estimated_free_time
            avail.append(free if free > now else now)
    assignments: list[Assignment] = []
    compact = policy._est_pairs
    estimate_pairs = policy.estimate_pairs
    # A visited task with no pair on an open PE cannot be dispatched in
    # this pass (open PEs only close), so its booking can only shape a
    # later task's choice.  ``deferred`` holds such tasks' compact rows in
    # visiting order until their bookings are applied, and ``shut`` maps
    # their nodes' ids to the row, so another task of the same node costs
    # one lookup.  Both are made by the first such task.
    deferred = None
    shut = None
    for task in order:
        node_id = id(task.node)
        if shut is not None:
            pairs = shut.get(node_id)
            if pairs is not None:
                deferred.append(pairs)
                continue
        pairs = compact.get(node_id)
        if pairs is None:
            pairs = estimate_pairs(task, handlers)
        for i, _est in pairs:
            if open_pe[i]:
                break
        else:
            if shut is None:
                shut = {}
                deferred = deque()
            shut[node_id] = pairs
            deferred.append(pairs)
            continue
        best_i, best_finish = _weigh(pairs, avail)
        if best_i < 0:
            continue
        if not open_pe[best_i]:
            # ``avail`` is a lower bound while bookings are deferred: they
            # only raise busy PEs, never an open one.  A task that prefers
            # an open PE keeps it under every later value, so the deferred
            # bookings are applied, in visiting order, only until this task
            # settles on an open PE or none is left — when its choice is
            # exact.  Only a booking on its current best can move it.
            while deferred:
                b, booked = _weigh(deferred.popleft(), avail)
                if b >= 0:
                    avail[b] = booked
                    if b == best_i:
                        best_i, best_finish = _weigh(pairs, avail)
                        if open_pe[best_i]:
                            break
        # Book the task on the chosen PE either way; dispatch only if the
        # PE is genuinely idle and not already taken this pass.
        avail[best_i] = best_finish
        if open_pe[best_i]:
            open_pe[best_i] = False
            assignments.append(Assignment(task, handlers[best_i]))
            idle_remaining -= 1
            # Once every usable idle PE has been dispatched, later bookings
            # cannot change any observable outcome of this pass — skip
            # them, and drop the ones still deferred.  (The *modeled*
            # overhead still charges the full O(n^2) scan.)
            if idle_remaining == 0:
                break
    return assignments


def _weigh(pairs: tuple, avail: list[float]) -> tuple[int, float]:
    """``(position, finish)`` of the earliest finish over a compact row under
    ``avail`` (strict ``<``: the lower position wins a tie), or ``(-1, inf)``
    when no finish is finite."""
    best_i = -1
    best_finish = _INF
    for i, est in pairs:
        finish = avail[i] + est
        if finish < best_finish:
            best_finish = finish
            best_i = i
    return best_i, best_finish


class EFTScheduler(Scheduler):
    name = "eft"

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        return eft_pass(self, ready, handlers, now)
