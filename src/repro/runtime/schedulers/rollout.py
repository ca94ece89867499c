"""Rollout policy: dispatch-now vs defer, decided by bounded lookahead.

Per dispatch decision the policy evaluates its top-k candidate
``(task, PE)`` assignments by running a short forward simulation of the
virtual engine's modeled future — in-flight tasks finish at their oracle
estimates and release successors, ready tasks are list-scheduled EFT-style
onto positional PE availability — and commits the candidate whose
simulated horizon makespan is best.  A *defer* rollout (dispatch nothing
until the next in-flight completion) competes against the candidates, so
the policy can deliberately hold a PE idle for a soon-to-be-released
critical task; ties go to dispatching, which keeps the policy
work-conserving.

The simulation is plain Python over oracle floats (no RNG, no engine
state), so results are deterministic and bit-identical under both DES
cores — with the extension built it simply runs the same pure rollout
loop, which is the documented fallback for policies without a C port.  Failed PEs
carry ``inf`` availability (the ``failed_mask`` contract), so neither the
candidates nor the rollouts ever place work on them.

Knobs (constructor arguments; the registry entry uses the defaults,
custom values go through ``register_policy``):

* ``top_k`` — candidate assignments evaluated per committed dispatch;
* ``horizon_tasks`` — bound on simulated task completions per rollout;
* ``horizon_us`` — optional modeled-time bound: simulated work starting
  past ``now + horizon_us`` is not booked;
* ``scan_limit`` — ready-prefix scanned for candidates, so open-loop
  backlogs cannot make a pass O(ready x rollouts).

In-flight work is tracked through the WM event hooks (dispatch adds an
entry with its oracle finish estimate, completion removes it, PE failure
drops the dead PE's entries), which is what gives the defer rollout its
release-time information.
"""

from __future__ import annotations

from repro.appmodel.instance import TaskInstance
from repro.runtime.handler import PEStatus, ResourceHandler
from repro.runtime.schedulers.base import Assignment, ExecutionTimeOracle, Scheduler


class RolloutScheduler(Scheduler):
    name = "rollout"
    wants_events = True

    def __init__(
        self,
        oracle: ExecutionTimeOracle | None = None,
        *,
        top_k: int = 3,
        horizon_tasks: int = 24,
        horizon_us: float | None = None,
        scan_limit: int = 64,
    ) -> None:
        super().__init__(oracle)
        self.top_k = max(1, int(top_k))
        self.horizon_tasks = max(1, int(horizon_tasks))
        self.horizon_us = horizon_us
        self.scan_limit = max(1, int(scan_limit))
        #: id(task) -> (task, handler, estimated finish time)
        self._inflight: dict[
            int, tuple[TaskInstance, ResourceHandler, float]
        ] = {}

    # -- WM event hooks ---------------------------------------------------------------

    def notify_dispatch(
        self, assignments: list[Assignment], now: float
    ) -> None:
        oracle = self.oracle
        if oracle is None:
            return
        for a in assignments:
            est = oracle.estimate(a.task, a.handler)
            if est is not None:
                self._inflight[id(a.task)] = (a.task, a.handler, now + est)

    def notify_completion(self, task: TaskInstance, now: float) -> None:
        self._inflight.pop(id(task), None)

    def notify_pe_failure(
        self, handler: ResourceHandler, now: float
    ) -> None:
        # Orphaned tasks are requeued by the WM; they re-enter via a
        # later dispatch, so their stale entries must go now.
        for key, (_t, h, _f) in list(self._inflight.items()):
            if h is handler:
                del self._inflight[key]

    # -- the forward simulation --------------------------------------------------------

    def _rollout(
        self,
        forced: tuple[TaskInstance, int] | None,
        pool: list[tuple[int, TaskInstance]],
        avail: list[float],
        handlers: list[ResourceHandler],
        now: float,
    ) -> tuple[float, float]:
        """Score one future: ``(horizon makespan, sum of finish times)``.

        ``forced`` books one assignment immediately; ``None`` is the defer
        rollout — every ready task's release is pushed past the earliest
        in-flight completion, modeling "leave the PEs idle one event".
        List scheduling then proceeds greedily by earliest finish, with
        successors released as simulated predecessors complete.
        """
        sim_avail = avail[:]
        estimate_row = self.estimate_row
        # Simulated release times and outstanding-predecessor counts.
        release: dict[int, float] = {}
        pred_left: dict[int, int] = {}
        sim_pool: list[tuple[int, TaskInstance]] = []
        makespan = now
        finish_sum = 0.0
        steps = 0
        limit = self.horizon_tasks
        deadline = (
            now + self.horizon_us if self.horizon_us is not None else None
        )

        def complete(task: TaskInstance, finish: float, order: int) -> None:
            # Release simulated successors of a (simulated) completion.
            app = task.app
            for succ_name in task.node.successors:
                succ = app.tasks.get(succ_name)
                if succ is None:
                    continue
                left = pred_left.get(id(succ))
                if left is None:
                    left = succ.unfinished_preds
                left -= 1
                pred_left[id(succ)] = left
                when = release.get(id(succ), now)
                if finish > when:
                    release[id(succ)] = when = finish
                if left == 0:
                    sim_pool.append((order, succ))

        # In-flight tasks complete at their oracle estimates and release
        # successors; the defer rollout additionally gates every ready
        # task behind the earliest such completion.
        next_event = None
        order = 1 << 20  # successors sort after the scanned ready prefix
        # Insertion order == dispatch order: deterministic across runs and
        # cores (never sort by id(), which is address-dependent).
        for task, handler, finish in list(self._inflight.values()):
            if handler.failed:
                continue
            finish = finish if finish > now else now
            if next_event is None or finish < next_event:
                next_event = finish
            complete(task, finish, order)
            order += 1

        for idx, task in pool:
            release[id(task)] = (
                next_event if forced is None and next_event is not None
                else now
            )
            sim_pool.append((idx, task))

        if forced is not None:
            task, i = forced
            row = estimate_row(task, handlers)
            start = sim_avail[i] if sim_avail[i] > now else now
            finish = start + row[i]
            sim_avail[i] = finish
            makespan = finish
            finish_sum += finish
            steps += 1
            complete(task, finish, order)
            order += 1

        inf = float("inf")
        while sim_pool and steps < limit:
            best = -1
            best_i = -1
            best_finish = inf
            best_key = None
            for j, (idx, task) in enumerate(sim_pool):
                row = estimate_row(task, handlers)
                rel = release.get(id(task), now)
                for i, est in enumerate(row):
                    if est is None:
                        continue
                    start = sim_avail[i] if sim_avail[i] > rel else rel
                    finish = start + est
                    key = (finish, idx, i)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = j
                        best_i = i
                        best_finish = finish
            if best < 0:
                break
            idx, task = sim_pool.pop(best)
            if deadline is not None and best_finish - _row_est(
                estimate_row(task, handlers), best_i
            ) > deadline:
                # Starts beyond the horizon: the rollout stops caring.
                continue
            sim_avail[best_i] = best_finish
            if best_finish > makespan:
                makespan = best_finish
            finish_sum += best_finish
            steps += 1
            complete(task, best_finish, idx)
        return (makespan, finish_sum)

    # -- scheduling -------------------------------------------------------------------

    def schedule(
        self,
        ready: list[TaskInstance],
        handlers: list[ResourceHandler],
        now: float,
    ) -> list[Assignment]:
        self.required_oracle()
        self._sync_row_cache(handlers)
        idle: list[bool] = []
        avail: list[float] = []
        idle_remaining = 0
        for h in handlers:
            if h.failed:
                idle.append(False)
                avail.append(float("inf"))
            elif h.status is PEStatus.IDLE:
                idle.append(True)
                avail.append(now)
                idle_remaining += 1
            else:
                idle.append(False)
                free = h.estimated_free_time
                avail.append(free if free > now else now)
        if idle_remaining == 0:
            return []

        # Bounded FIFO prefix of the ready list (EDF composition pre-sorts
        # it, so the prefix is the deadline-critical head under +edf).
        scanned: list[tuple[int, TaskInstance]] = []
        for idx, task in enumerate(ready):
            if idx >= self.scan_limit:
                break
            scanned.append((idx, task))

        estimate_row = self.estimate_row
        assignments: list[Assignment] = []
        taken = [False] * len(handlers)
        remaining = scanned
        while idle_remaining > 0 and remaining:
            # Top-k candidates by immediate EFT finish (one best PE per
            # task), over idle not-yet-taken PEs only.
            cands: list[tuple[float, int, TaskInstance, int]] = []
            for idx, task in remaining:
                row = estimate_row(task, handlers)
                best_i = -1
                best_finish = float("inf")
                for i, est in enumerate(row):
                    if est is None or not idle[i] or taken[i]:
                        continue
                    finish = now + est
                    if finish < best_finish:
                        best_finish = finish
                        best_i = i
                if best_i >= 0:
                    cands.append((best_finish, idx, task, best_i))
            if not cands:
                break
            cands.sort(key=lambda c: (c[0], c[1]))
            cands = cands[: self.top_k]

            pool_base = remaining
            best_choice = None
            best_score = None
            for _finish, idx, task, i in cands:
                pool = [(j, t) for j, t in pool_base if t is not task]
                score = self._rollout((task, i), pool, avail, handlers, now)
                key = (score, idx, i)
                if best_score is None or key < best_score:
                    best_score = key
                    best_choice = (idx, task, i)
            if self._inflight:
                defer = self._rollout(
                    None, pool_base, avail, handlers, now
                )
                # Strictly better only: ties dispatch (work-conserving).
                if best_score is None or defer < best_score[0]:
                    break
            if best_choice is None:
                break
            idx, task, i = best_choice
            assignments.append(Assignment(task, handlers[i]))
            taken[i] = True
            idle_remaining -= 1
            row = estimate_row(task, handlers)
            start = avail[i] if avail[i] > now else now
            avail[i] = start + row[i]
            # Committed work is in flight for the remaining rollouts of
            # this pass: later candidates see its successor releases.
            self._inflight[id(task)] = (task, handlers[i], avail[i])
            remaining = [(j, t) for j, t in remaining if t is not task]
        # Entries added above are provisional; the WM commit re-adds the
        # real ones via notify_dispatch, and any the WM filtered out
        # (racing failure) must not linger.
        for a in assignments:
            self._inflight.pop(id(a.task), None)
        return assignments


def _row_est(row: tuple, i: int) -> float:
    est = row[i]
    return est if est is not None else 0.0
