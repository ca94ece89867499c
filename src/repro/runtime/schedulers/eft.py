"""Earliest finish time (EFT) — O(n²), the paper's heavyweight policy.

For each ready task the policy evaluates the finish time on *every* PE —
idle or busy — using per-PE availability estimates that it updates as it
tentatively books tasks within the pass (so the booking of earlier ready
tasks delays the estimates seen by later ones; this cross-task interaction
is what makes the policy quadratic in ready-queue length).  Only decisions
that landed on an actually-idle PE turn into dispatches; bookings onto
busy PEs merely shape subsequent estimates, as in list-scheduling EFT.

:func:`eft_pass` is that placement loop, shared with the rank-ordered
policies (``heft``, ``cprank``), which differ only in the order they visit
the ready tasks.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import ResourceHandler
from repro.runtime.schedulers.base import Assignment, Scheduler


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
    # quadratic inner loop allocation-free, one dict lookup per task, and
    # free of columns the task cannot use.  (An idle PE that is not
    # usable falls into the last branch; no task visited below has an
    # estimate for it, so its entry is never read.)
    inf = float("inf")
    avail: list[float] = []
    for i, h in enumerate(handlers):
        if open_pe[i]:
            avail.append(now)
        elif h.failed:
            # Failed PEs never win the finish-time comparison (inf + est
            # is never < best), so the inner loop needs no extra branch.
            avail.append(inf)
        else:
            free = h.estimated_free_time
            avail.append(free if free > now else now)
    assignments: list[Assignment] = []
    compact = policy._est_pairs
    estimate_pairs = policy.estimate_pairs
    for task in order:
        pairs = compact.get(id(task.node))
        if pairs is None:
            pairs = estimate_pairs(task, handlers)
        best_i = -1
        best_finish = inf
        for i, est in pairs:
            finish = avail[i] + est
            if finish < best_finish:
                best_finish = finish
                best_i = i
        if best_i < 0:
            continue
        # Book the task on the chosen PE either way; dispatch only if the
        # PE is genuinely idle and not already taken this pass.
        avail[best_i] = best_finish
        if open_pe[best_i]:
            open_pe[best_i] = False
            assignments.append(Assignment(task, handlers[best_i]))
            idle_remaining -= 1
            # Once every usable idle PE has been dispatched, later bookings
            # cannot change any observable outcome of this pass — skip
            # them.  (The *modeled* overhead still charges the full O(n^2)
            # scan.)
            if idle_remaining == 0:
                break
    return assignments


class EFTScheduler(Scheduler):
    name = "eft"

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        return eft_pass(self, ready, handlers, now)
