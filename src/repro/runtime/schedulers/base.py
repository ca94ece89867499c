"""Scheduler interface and shared helpers.

A policy receives the ready task list and the resource handlers, and
returns assignments of tasks onto **idle** PEs whose type appears in the
task's platform list.  The workload manager validates every assignment
(:func:`validate_assignments`), so a buggy custom policy fails loudly with
a :class:`~repro.common.errors.SchedulingError` rather than corrupting the
emulation.

The ready list a policy is handed is iterable in FIFO order (or in the
order of the policy's :attr:`Scheduler.ready_key`), sized, and supports
membership by identity.  The workload manager's own
:class:`~repro.runtime.workload_manager.ReadyList` also carries a capability
index, which :meth:`Scheduler.usable_idle` turns into "the idle PEs worth
scanning the queue for", and one FIFO lane per capability, which
:func:`open_lanes` turns into "the queued tasks an open PE can take"; a
plain list works everywhere, without those shortcuts.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Protocol

from repro.appmodel.instance import TaskInstance
from repro.common.errors import SchedulingError
from repro.common.rng import SeedSequenceFactory
from repro.runtime.handler import PEStatus, ResourceHandler

#: read once per PE per pass; a module global is a fraction of the cost
#: of the Enum class attribute lookup
_IDLE = PEStatus.IDLE


class Assignment(NamedTuple):
    """One scheduling decision: run ``task`` on ``handler``'s PE."""

    task: TaskInstance
    handler: ResourceHandler


class ExecutionTimeOracle(Protocol):
    """Expected execution times, as schedulers would obtain from profiling.

    ``estimate(task, handler)`` returns the expected service time (µs) of
    the task on the handler's PE, or ``None`` when the task's platform list
    does not include that PE type.
    """

    def estimate(self, task: TaskInstance, handler: ResourceHandler) -> float | None:
        ...  # pragma: no cover - protocol


class Scheduler:
    """Base class for scheduling policies.

    Subclasses implement :meth:`schedule`.  The helpers below are what the
    built-in policies share: :meth:`usable_idle` (where a queue scan
    starts and when it may stop), the per-node :meth:`estimate_row` /
    :meth:`support_row` caches, and :meth:`failed_mask`.
    """

    #: registry name; used for overhead modeling and reporting
    name = "base"
    #: reservation-capable policies may also target busy PEs (queued dispatch)
    uses_reservation = False
    #: policies that maintain incremental state (rollout's in-flight
    #: tracking) set this True so the workload manager forwards dispatch/
    #: completion/PE-failure events to the notify_* hooks below.  The
    #: default False keeps the WM hot loops free of per-event calls for
    #: the stateless policies, whose per-session tables (HEFT's ranks)
    #: read only archetype graphs and PE state.
    wants_events = False
    #: an order key for the ready list, or None (FIFO).  The workload
    #: manager builds its list with it, so the list keeps ``(key, seq)``
    #: order as tasks come and go, and hands the policy that order
    #: (:attr:`ReadyList.ordered`) instead of the list.  A key must not
    #: change while its task is listed.  ``make_scheduler("<p>+edf")`` sets
    #: :func:`~repro.runtime.qos.deadline_key` here.
    ready_key = None

    def __init__(self, oracle: ExecutionTimeOracle | None = None) -> None:
        self.oracle = oracle
        self._row_handlers: list[ResourceHandler] | None = None
        self._row_oracle: ExecutionTimeOracle | None = None
        self._reset_tables()

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        """Map ready tasks to PEs.  Must not mutate ``ready``."""
        raise NotImplementedError

    def begin_session(self, seeds: SeedSequenceFactory) -> None:
        """A session starts; ``seeds`` names its random streams (the run's
        seed and ``run_index``).  A policy that draws random numbers takes
        its stream from here, so each run draws its own."""

    # -- incremental-state hooks (only called when wants_events is True) -----------

    def notify_dispatch(
        self, assignments: list[Assignment], now: float
    ) -> None:
        """Committed assignments left the ready list (after WM commit)."""

    def notify_completion(self, task: TaskInstance, now: float) -> None:
        """A task finished; called before a completed app is released, so
        ``task.app`` (and ``task.app.is_complete``) is still readable."""

    def notify_pe_failure(
        self, handler: ResourceHandler, now: float
    ) -> None:
        """A PE permanently failed; its in-flight work is about to be
        requeued by the WM."""

    # -- helpers for subclasses ----------------------------------------------------

    def _sync_row_cache(self, handlers: list[ResourceHandler]) -> None:
        if handlers is not self._row_handlers or self.oracle is not self._row_oracle:
            self._row_handlers = handlers
            self._row_oracle = self.oracle
            self._reset_tables()

    def _reset_tables(self) -> None:
        """Drop every table computed over the handler list and the oracle.

        Runs when either changes (a new session), so a reused instance
        starts clean.  The row caches are per archetype node (see
        :meth:`estimate_row` / :meth:`support_row`), keyed by id(node);
        each entry pins the node so the id cannot be recycled.  Policies
        with tables of their own extend this.
        """
        self._est_rows: dict[int, tuple] = {}
        self._est_pairs: dict[int, tuple] = {}
        self._support_rows: dict[int, tuple] = {}

    def estimate_row(
        self, task: TaskInstance, handlers: list[ResourceHandler]
    ) -> tuple:
        """Oracle estimates for ``task`` on every handler, positionally.

        All instances of an application share archetype ``TaskNode``
        objects and estimates depend only on the node, so the row is
        computed once per node and thereafter is a single dict lookup —
        this removes the oracle call from the O(ready × PEs) inner loops.

        The built-in placement loops go one step further: they sync the
        cache once per pass, read ``_est_rows`` inline per task and call
        this method only on a miss (which fills the same dict).
        """
        self._sync_row_cache(handlers)
        node = task.node
        hit = self._est_rows.get(id(node))
        if hit is not None:
            return hit[1]
        oracle = self.required_oracle()
        row = tuple(oracle.estimate(task, h) for h in handlers)
        self._est_rows[id(node)] = (node, row)
        return row

    def estimate_pairs(
        self, task: TaskInstance, handlers: list[ResourceHandler]
    ) -> tuple:
        """:meth:`estimate_row` without its holes: ``(position, estimate)``
        for the handlers the node has an estimate on, ascending position.

        What a placement loop that looks at every PE per task iterates
        (:func:`~repro.runtime.schedulers.eft.eft_pass`): a CPU-only node
        on 3C+2F is three pairs, not five columns and two ``None`` tests.
        Built once per node from the row and cached beside it — same key,
        same lifetime, and the ``_est_rows`` entry the row made is what
        pins the node.
        """
        row = self.estimate_row(task, handlers)
        pairs = tuple(
            (i, est) for i, est in enumerate(row) if est is not None
        )
        self._est_pairs[id(task.node)] = pairs
        return pairs

    def support_row(
        self, task, handlers: list[ResourceHandler]
    ) -> tuple:
        """Per-handler support flags for ``task``'s node, cached like
        :meth:`estimate_row` (no oracle required)."""
        self._sync_row_cache(handlers)
        node = task.node
        hit = self._support_rows.get(id(node))
        if hit is not None:
            return hit[1]
        row = tuple(node.supports_any(h.accepted_platforms) for h in handlers)
        self._support_rows[id(node)] = (node, row)
        return row

    @staticmethod
    def idle_handlers(handlers: list[ResourceHandler]) -> list[ResourceHandler]:
        """Snapshot of currently idle PEs (the paper's 'begin by checking
        availability' guidance; one plain ``status`` load per PE, see
        :mod:`repro.runtime.handler`).  ``PEStatus.FAILED`` is terminal and
        distinct from IDLE, so failed PEs are excluded here automatically."""
        return [h for h in handlers if h.status is _IDLE]

    @staticmethod
    def usable_idle(
        ready, handlers: list[ResourceHandler]
    ) -> list[tuple[int, ResourceHandler]]:
        """``(position, handler)`` of every idle PE some ready task can run on.

        A policy that scans the queue should start here and stop once these
        PEs are dispatched: an idle PE that no ready task supports can
        never be booked or dispatched, so waiting for it only walks the
        whole queue for nothing.  The cheap question comes first: with no
        idle PE the answer is ``[]`` whatever is queued.  Otherwise the
        idle PEs are filtered by ``ready.wanted()`` — the platform names
        some ready task can run on, which the ready list remembers between
        changes (:meth:`ReadyList.wanted`), not a scan.  A ``ready``
        without that method (a plain list) or one holding items of
        unknown capability (``wanted()`` is None) yields every idle PE,
        which is always correct, only slower.
        """
        idle = [
            (i, h) for i, h in enumerate(handlers)
            if h.status is _IDLE
        ]
        if not idle:
            return idle
        wanted_of = getattr(ready, "wanted", None)
        wanted = wanted_of() if wanted_of is not None else None
        if wanted is None:
            return idle
        return [
            pair for pair in idle
            if not wanted.isdisjoint(pair[1].accepted_platforms)
        ]

    @staticmethod
    def failed_mask(handlers: list[ResourceHandler]) -> list[bool] | None:
        """Positional failed-PE flags, or None when every PE is live.

        Custom policies that scan ``handlers`` directly (instead of using
        :meth:`idle_handlers`) should skip handlers flagged here under
        fault injection; the None fast path keeps the no-fault case free.
        Reads the lock-free ``failed`` mirror — the workload manager
        re-filters committed assignments, so a stale read is benign.
        """
        if not any(h.failed for h in handlers):
            return None
        return [h.failed for h in handlers]

    def required_oracle(self) -> ExecutionTimeOracle:
        if self.oracle is None:
            raise SchedulingError(
                f"policy {self.name!r} requires an execution-time oracle"
            )
        return self.oracle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


def open_lanes(ready, usable: list[tuple[int, ResourceHandler]],
               open_pe: list[bool]):
    """The tasks of ``ready`` an open PE can take, in FIFO order: what a
    FIFO placement pass visits (``eft_pass``, MET).

    ``usable`` is the pass's :meth:`Scheduler.usable_idle` answer and
    ``open_pe`` its positional "still free to take a dispatch" flags, which
    the pass clears as it dispatches; the cursor reads them live.  Over a
    ready list with :meth:`~repro.runtime.workload_manager.ReadyList.lanes`
    a lane counts while an open PE's ``accepted_platforms`` meets its key
    (the ``None`` key, unknown capability, always counts).  Every usable PE
    accepts some live lane, so when one lane counts, every usable PE
    accepts it and it counts until the pass ends: its own iterator is the
    cursor.  Otherwise the lanes that count are merged by ``seq``, and one
    is dropped when it is next in line and every PE that accepted it has
    closed.  A task of a lane that does not count has no estimate on an
    open PE, so skipping it changes no placement.  A ready list without
    ``lanes`` (a plain list, a keyed list's key-order view) is walked in
    full.
    """
    lanes_of = getattr(ready, "lanes", None)
    if lanes_of is None:
        return ready
    lanes = lanes_of()
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
    """:func:`open_lanes` over two or more ``(entries, accepting)`` lanes."""
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


def validate_assignments(
    assignments: list[Assignment],
    ready,
    *,
    allow_busy: bool = False,
) -> None:
    """Reject structurally invalid policy output.

    ``ready`` is any container supporting membership by identity (the WM's
    ReadyList, or a plain list in tests).
    """
    seen_tasks: set[int] = set()
    seen_handlers: set[int] = set()
    for a in assignments:
        task, handler = a.task, a.handler
        if id(task) in seen_tasks:
            raise SchedulingError(
                f"task {task.qualified_name()} assigned twice in one pass"
            )
        seen_tasks.add(id(task))
        if task not in ready:
            raise SchedulingError(
                f"task {task.qualified_name()} is not in the ready list"
            )
        if not task.supports_pe(handler):
            raise SchedulingError(
                f"task {task.qualified_name()} does not support PE type "
                f"{handler.type_name!r}"
            )
        if not allow_busy:
            if id(handler) in seen_handlers:
                raise SchedulingError(
                    f"PE {handler.name} assigned two tasks in one pass"
                )
            status = handler.status
            if status is not _IDLE:
                raise SchedulingError(
                    f"PE {handler.name} is not idle ({status.value})"
                )
        seen_handlers.add(id(handler))
