"""Earliest finish time (EFT) — O(n²), the paper's heavyweight policy.

For each ready task the policy evaluates the finish time on *every* PE —
idle or busy — using per-PE availability estimates that it updates as it
tentatively books tasks within the pass (so the booking of earlier ready
tasks delays the estimates seen by later ones; this cross-task interaction
is what makes the policy quadratic in ready-queue length).  Only decisions
that landed on an actually-idle PE turn into dispatches; bookings onto
busy PEs merely shape subsequent estimates, as in list-scheduling EFT.

That quadratic cost is what the scheduler cost model charges, and it is
unchanged.  The host pays less.  A task that cannot take an open PE is not
weighed; its booking is applied, in visiting order, only when a later
task's choice between an open and a busy PE depends on it.  In FIFO order
over the workload manager's ready list the pass does not even visit such
tasks: it walks only the capability lanes some open PE accepts
(:meth:`~repro.runtime.workload_manager.ReadyList.lanes`).  So the host
cost follows the tasks an open PE can take and the bookings some dispatch
depends on; the assignments are those of booking every task.

:func:`eft_pass` is that placement loop, shared with the rank-ordered
``heft`` (also registered as ``cprank``), which differs only in the order
it visits the ready tasks.
"""

from __future__ import annotations

from operator import itemgetter

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
    ``ready`` itself — counts do not depend on visiting order.  In FIFO
    order over a ready list with :meth:`ReadyList.lanes`, the pass visits
    only the lanes an open PE accepts.
    """
    usable = policy.usable_idle(ready, handlers)
    if not usable:
        return []
    policy._sync_row_cache(handlers)
    order = ready if key is None else sorted(ready, key=key)
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
    # A task with no pair on an open PE cannot be dispatched in this pass
    # (open PEs only close), so its booking can only shape a later task's
    # choice: it is not weighed when visited, and ``walker`` applies its
    # booking later if that choice depends on it.  FIFO over a ReadyList
    # visits only the lanes some open PE accepts (a task of any other lane
    # has no pair on an open PE); any other order visits every task, and
    # ``closed`` remembers the nodes found with no pair on an open PE, so
    # another task of the same node costs one lookup.
    lanes = getattr(ready, "lanes", None) if key is None else None
    visit = order if lanes is None else _lane_cursor(lanes(), usable, open_pe)
    closed: set[int] = set()
    # ids of the visited tasks that were weighed (booked when they could be)
    weighed: set[int] = set()
    walker = None
    for task in visit:
        node_id = id(task.node)
        if node_id in closed:
            continue
        pairs = compact.get(node_id)
        if pairs is None:
            pairs = estimate_pairs(task, handlers)
        for i, _est in pairs:
            if open_pe[i]:
                break
        else:
            closed.add(node_id)
            continue
        weighed.add(id(task))
        best_i, best_finish = _weigh(pairs, avail)
        if best_i < 0:
            continue
        if not open_pe[best_i]:
            # ``avail`` is a lower bound while bookings are left out: they
            # only raise busy PEs, never an open one.  A task that prefers
            # an open PE keeps it under every later value, so the walker
            # applies the bookings of the earlier tasks that were not
            # weighed, in visiting order, only until this task settles on
            # an open PE or it reaches this task — when the choice is
            # exact.  Only a booking on its current best can move it.
            if walker is None:
                walker = iter(order)
            for earlier in walker:
                if earlier is task:
                    break
                if id(earlier) in weighed:
                    continue
                earlier_pairs = compact.get(id(earlier.node))
                if earlier_pairs is None:
                    earlier_pairs = estimate_pairs(earlier, handlers)
                b, booked = _weigh(earlier_pairs, avail)
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
            # them, and the ones left out before.  (The *modeled* overhead
            # still charges the full O(n^2) scan.)
            if idle_remaining == 0:
                break
    return assignments


def _lane_cursor(lanes, usable, open_pe):
    """The tasks of the ready list's ``lanes`` (:meth:`ReadyList.lanes`)
    that some open PE accepts, in FIFO order.

    A lane counts while an open PE's ``accepted_platforms`` meets its key
    (the ``None`` key, unknown capability, always counts).  Every usable PE
    accepts some live lane, so when one lane counts, every usable PE
    accepts it and it counts until the pass ends: its own iterator is the
    cursor.  Otherwise the lanes that count are merged by ``seq``, and one
    is dropped when it is next in line and every PE that accepted it has
    closed.
    """
    if len(lanes) == 1:  # a lone live lane counts: no need to ask
        return map(itemgetter(1), lanes[0][1])
    counted = []
    for lane_key, entries in lanes:
        if lane_key is None:
            accepting = ()
        else:
            names = set(lane_key)
            accepting = [
                i for i, h in usable if not names.isdisjoint(h.accepted_platforms)
            ]
            if not accepting:
                continue
        counted.append((entries, accepting))
    if len(counted) == 1:
        return map(itemgetter(1), counted[0][0])
    return _merged(counted, open_pe)


def _merged(counted, open_pe):
    """:func:`_lane_cursor` over two or more ``(entries, accepting)`` lanes."""
    heads = []
    for entries, accepting in counted:
        it = iter(entries)
        seq, task = next(it)
        heads.append([seq, task, it, accepting])
    while heads:
        head = heads[0]
        for other in heads:
            if other[0] < head[0]:
                head = other
        accepting = head[3]
        for i in accepting:
            if open_pe[i]:
                break
        else:
            if accepting:
                heads.remove(head)
                continue
        yield head[1]
        entry = next(head[2], None)
        if entry is None:
            heads.remove(head)
        else:
            head[0], head[1] = entry


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
