"""Scheduling statistics collected before emulation termination (Sec. II-A).

The framework records, per task: which PE ran it and its ready → dispatch
→ start → finish timeline; per PE: busy time (and derived utilization and
energy); per workload-manager invocation: the scheduling overhead — the
paper's definition: time to monitor completion status, update the ready
queue, run the policy, and communicate tasks to resource managers.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.common.errors import EmulationError
from repro.common.log import get_logger
from repro.common.units import to_msec, to_sec
from repro.hardware.pe import ProcessingElement

_log = get_logger("runtime.stats")

#: streaming runs keep at most this many fault-timeline entries; overload
#: runs shedding millions of apps must not grow the timeline unboundedly
_TIMELINE_CAP = 1024


class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator (O(1) memory).

    Maintains five markers whose heights track the p-quantile without
    retaining samples; marker heights are adjusted with a piecewise
    parabolic fit as observations stream in.  Exact for the first five
    samples, asymptotically accurate afterwards.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_dn", "count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise EmulationError(f"quantile p must be in (0, 1), got {p}")
        self.p = p
        self._q: list[float] = []  # marker heights (first 5: raw samples)
        self._n = [0.0, 1.0, 2.0, 3.0, 4.0]  # marker positions
        self._np = [0.0, 2.0 * p, 4.0 * p, 2.0 + 2.0 * p, 4.0]  # desired
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.count = 0

    def add(self, x: float) -> None:
        self.count += 1
        q = self._q
        if len(q) < 5:
            # initialization phase: collect and keep sorted
            lo, hi = 0, len(q)
            while lo < hi:
                mid = (lo + hi) // 2
                if q[mid] < x:
                    lo = mid + 1
                else:
                    hi = mid
            q.insert(lo, x)
            return
        n, np_, dn = self._n, self._np, self._dn
        # locate the cell containing x, clamping the extreme markers
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            np_[i] += dn[i]
        # adjust the three interior markers toward their desired positions
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d >= 0 else -1.0
                qi = self._parabolic(i, d)
                if not q[i - 1] < qi < q[i + 1]:
                    # parabolic estimate left the bracket: linear fallback
                    j = i + int(d)
                    qi = q[i] + d * (q[j] - q[i]) / (n[j] - n[i])
                q[i] = qi
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def value(self) -> float:
        """Current quantile estimate (exact while at most 5 samples)."""
        q = self._q
        if not q:
            raise EmulationError("quantile of an empty stream")
        if self.count <= 5:
            # linear interpolation over the sorted samples (numpy's default)
            pos = self.p * (len(q) - 1)
            lo = int(pos)
            frac = pos - lo
            if lo + 1 >= len(q):
                return q[-1]
            return q[lo] + frac * (q[lo + 1] - q[lo])
        return q[2]


class _MeanAgg:
    """Constant-size (count, sum) aggregate for a stream of floats."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x

    def mean(self) -> float:
        return self.total / self.count


class TaskRecord(NamedTuple):
    """Timeline of one executed task (one is built per task, so it is the
    cheapest immutable record Python has: a tuple with named fields)."""

    app_name: str
    instance_id: int
    task_name: str
    task_id: int
    pe_name: str
    pe_type: str
    ready_time: float
    dispatch_time: float
    start_time: float
    finish_time: float

    @property
    def service_time(self) -> float:
        return self.finish_time - self.start_time

    @property
    def queue_delay(self) -> float:
        """Ready → start latency (scheduling + dispatch + PE wait)."""
        return self.start_time - self.ready_time


@dataclass
class PEUsage:
    pe_name: str
    pe_type: str
    busy_time: float = 0.0
    tasks_executed: int = 0
    active_power_w: float = 0.0
    idle_power_w: float = 0.0
    _overrun_warned: bool = False

    def utilization(self, makespan: float) -> float:
        """Busy fraction of the makespan, clamped to [0, 1].

        Busy time exceeding the makespan means double accounting somewhere
        upstream; that is surfaced (one warning per PE) instead of silently
        hidden by the clamp.
        """
        if makespan <= 0:
            return 0.0
        util = self.busy_time / makespan
        if util > 1.0 + 1e-9 and not self._overrun_warned:
            self._overrun_warned = True
            _log.warning(
                f"PE {self.pe_name}: busy_time {self.busy_time:.1f}us exceeds "
                f"makespan {makespan:.1f}us (utilization {util:.4f}) — "
                "double-accounted service time?"
            )
        return min(1.0, util)

    def energy_joules(self, makespan: float) -> float:
        """Busy at active power, remainder at idle power (µs·W → J)."""
        idle = max(0.0, makespan - self.busy_time)
        return (self.busy_time * self.active_power_w + idle * self.idle_power_w) / 1e6


class EmulationStats:
    """Statistics sink shared by both backends; keeps every sample.

    One :class:`TaskRecord` per task and per-app response and slack lists,
    so percentiles are exact and trace exports work.  Open-loop runs get
    the constant-memory :class:`StreamingStats` instead.

    **Sink protocol.**  A run reports only through the hooks below.  *WM*
    is the workload-manager loop (an engine process on the virtual
    backend, the calling thread on the threaded one) and the
    ``WorkloadManagerCore`` steps it calls (``run_pass``, ``dispatch``,
    ``drain``, ...).  *Locked*
    hooks append to ``fault_timeline`` under ``_fault_lock``, because
    ``record_transient_fault`` can run on an RM thread meanwhile.

    - ``register_pe``: once per PE while the session is built.
    - ``record_injection``: a pass took arrivals off the queue; WM.
    - ``record_task``: a task finished (monitor step); WM.
    - ``record_app_completion``: after the ``record_task`` of an app's
      last task; WM.
    - ``record_scheduling_pass``: once per WM pass on both backends —
      every pass with the cost model's overhead and invocation count
      (virtual), every non-idle pass with its measured wall time as one
      invocation (threaded); WM.
    - ``record_app_drop``: admission control shed an app; WM, locked.
    - ``record_pe_failure``: the WM absorbed a PE failure or watchdog
      fail-stop; WM, locked.
    - ``record_requeue``: a task went back to the ready list; WM, locked.
    - ``record_app_degradation``: an app lost its last capable PE; WM,
      locked.
    - ``record_transient_fault``: an execution attempt failed; the PE's
      resource manager (an engine process on the virtual backend, an RM
      thread on the threaded one), locked.
    - ``mark_interrupted``: the QoS controller saw a signal or an
      exhausted budget; WM, first call wins, locked.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.pe_usage: dict[str, PEUsage] = {}
        self.sched_overhead_total: float = 0.0
        self.sched_invocations: int = 0
        #: ready-list length summed over every scheduling invocation
        self._ready_len_total: int = 0
        #: recorded WM passes, and the completions they absorbed (not in
        #: summary(): ``sched_invocations`` is what the paper reports)
        self.sched_passes: int = 0
        self.completions_absorbed: int = 0
        self.apps_injected: int = 0
        self.apps_completed: int = 0
        self.emulation_end: float = 0.0
        self.policy_name: str = ""
        self.config_label: str = ""
        # -- fault-tolerance accounting (see runtime.faults) ----------------
        #: applications terminally degraded (no live capable PE remained)
        self.apps_degraded: int = 0
        #: permanent PE failures injected
        self.pe_failures: int = 0
        #: transient kernel/DMA faults observed (one per failed attempt)
        self.transient_faults: int = 0
        #: in-place retry attempts after transient faults
        self.task_retries: int = 0
        #: WM-level reschedules (PE failure orphans + retry exhaustion)
        self.tasks_requeued: int = 0
        #: whether a fault injector was attached to the run at all
        self.faults_enabled: bool = False
        #: ordered fault events: {"t_us", "kind", "pe", ...}
        self.fault_timeline: list[dict] = []
        #: timeline entries discarded once the streaming cap was hit
        self.fault_timeline_truncated = 0
        # Threaded-backend RM threads record faults concurrently; the
        # counters above are composite updates, so guard them.
        self._fault_lock = threading.Lock()
        # -- QoS accounting (see runtime.qos) -------------------------------
        #: whether a QoS controller was attached to the run at all
        self.qos_enabled: bool = False
        #: applications shed by admission control
        self.apps_dropped: int = 0
        #: completed applications that met / missed their deadline
        self.apps_on_time: int = 0
        self.apps_late: int = 0
        #: hung-kernel fail-stops issued by the threaded watchdog
        self.watchdog_failstops: int = 0
        #: run stopped early (signal or budget); stats cover work done so far
        self.interrupted: bool = False
        self.interrupt_reason: str = ""
        self._init_samples()

    def _init_samples(self) -> None:  # each class allocates only its own store
        self.task_records: list[TaskRecord] = []
        #: per-app response-time samples (µs), in completion order
        self.app_response_times: dict[str, list[float]] = {}
        #: per-app slack samples (deadline − finish, µs; negative = late)
        self.app_slack: dict[str, list[float]] = {}

    # -- recording -----------------------------------------------------------------

    def register_pe(self, pe: ProcessingElement) -> None:
        self.pe_usage[pe.name] = PEUsage(
            pe_name=pe.name,
            pe_type=pe.type_name,
            active_power_w=pe.pe_type.active_power_w,
            idle_power_w=pe.pe_type.idle_power_w,
        )

    def record_task(self, task, pe: ProcessingElement) -> None:
        start = task.start_time
        finish = task.finish_time
        usage = self.pe_usage[pe.name]
        usage.busy_time += finish - start
        usage.tasks_executed += 1
        if finish > self.emulation_end:
            self.emulation_end = finish
        app = task.app
        self.task_records.append(
            TaskRecord(
                app.app_name, app.instance_id, task.node.name, task.task_id,
                pe.name, pe.type_name,
                task.ready_time, task.dispatch_time, start, finish,
            )
        )

    def record_scheduling_pass(self, overhead: float, ready_len: int,
                               completions: int, invocations: int) -> None:
        """One WM pass standing for ``invocations`` scheduler runs, each
        seeing its ready length and charged an equal share of ``overhead``
        (added one at a time: the same floats as recording each alone)."""
        self.sched_passes += 1
        self.completions_absorbed += completions
        self.sched_invocations += invocations
        self._ready_len_total += ready_len * invocations
        share = overhead / invocations
        for _ in range(invocations):
            self.sched_overhead_total += share

    def record_injection(self, count: int = 1) -> None:
        self.apps_injected += count

    def record_app_completion(self, instance) -> None:
        self.apps_completed += 1
        self.app_response_times.setdefault(instance.app_name, []).append(
            instance.response_time()
        )
        self.emulation_end = max(self.emulation_end, instance.finish_time)
        if instance.deadline is not None:
            slack = instance.deadline - instance.finish_time
            self.app_slack.setdefault(instance.app_name, []).append(slack)
            if slack >= 0:
                self.apps_on_time += 1
            else:
                self.apps_late += 1

    def _timeline_append(self, now: float, kind: str, **fields) -> None:
        """Append a fault-timeline entry (call with the fault lock held)."""
        self.fault_timeline.append({"t_us": round(now, 3), "kind": kind, **fields})

    def record_app_drop(self, instance, now: float, reason: str) -> None:
        """Application shed by admission control before completing."""
        with self._fault_lock:
            self.apps_dropped += 1
            self._timeline_append(
                now, "app_dropped",
                app=f"{instance.app_name}#{instance.instance_id}", reason=reason,
            )

    def mark_interrupted(self, reason: str, now: float) -> None:
        """Flag the run as stopped early (signal or watchdog budget)."""
        with self._fault_lock:
            if not self.interrupted:
                self.interrupted = True
                self.interrupt_reason = reason
                self._timeline_append(now, "interrupted", reason=reason)

    # -- fault recording (thread-safe) ---------------------------------------------

    def record_pe_failure(
        self, pe_name: str, now: float, *, kind: str = "pe_failure"
    ) -> None:
        with self._fault_lock:
            self.pe_failures += 1
            if kind == "watchdog_failstop":
                self.watchdog_failstops += 1
            self._timeline_append(now, kind, pe=pe_name)

    def record_transient_fault(
        self, pe_name: str, task_name: str, attempt: int, now: float, kind: str
    ) -> None:
        """One failed execution attempt (and the retry it triggers)."""
        with self._fault_lock:
            self.transient_faults += 1
            self.task_retries += 1
            self._timeline_append(
                now, kind, pe=pe_name, task=task_name, attempt=attempt
            )

    def record_requeue(self, task, pe_name: str, now: float, kind: str) -> None:
        """Task handed back to the WM (PE failure orphan or retry exhaustion)."""
        with self._fault_lock:
            self.tasks_requeued += 1
            self._timeline_append(
                now, kind, pe=pe_name, task=task.qualified_name()
            )

    def record_app_degradation(self, instance, now: float) -> None:
        with self._fault_lock:
            self.apps_degraded += 1
            self._timeline_append(
                now, "app_degraded",
                app=f"{instance.app_name}#{instance.instance_id}",
            )

    # -- aggregates ----------------------------------------------------------------

    @property
    def makespan(self) -> float:
        """Workload execution time in µs (reference start → last finish)."""
        return self.emulation_end

    @property
    def task_count(self) -> int:
        return sum(u.tasks_executed for u in self.pe_usage.values())

    def avg_scheduling_overhead(self) -> float:
        """Mean overhead per scheduling pass, µs (the paper's Fig. 10b)."""
        if self.sched_invocations == 0:
            return 0.0
        return self.sched_overhead_total / self.sched_invocations

    def mean_ready_length(self) -> float:
        if self.sched_invocations == 0:
            return 0.0
        return self._ready_len_total / self.sched_invocations

    def pe_utilization(self) -> dict[str, float]:
        """Per-PE usage-time / workload-execution-time (Fig. 9b)."""
        span = self.makespan
        return {
            name: usage.utilization(span)
            for name, usage in self.pe_usage.items()
        }

    def pe_energy(self) -> dict[str, float]:
        span = self.makespan
        return {
            name: usage.energy_joules(span) for name, usage in self.pe_usage.items()
        }

    def _response_means_us(self) -> dict[str, float]:
        """Mean response time per app with a completion, µs, by app name."""
        return {app: float(np.mean(ts)) for app, ts in sorted(self.app_response_times.items())}

    def _slack_means_us(self) -> dict[str, float]:
        """Mean slack per app with a deadline, µs, by app name."""
        return {app: float(np.mean(vs)) for app, vs in sorted(self.app_slack.items())}

    def mean_response_time(self, app_name: str) -> float:
        mean = self._response_means_us().get(app_name)
        if mean is None:
            raise EmulationError(f"no completed instances of {app_name!r}")
        return mean

    def assert_all_complete(self) -> None:
        """Every injected app completed, was degraded, or was dropped."""
        accounted = self.apps_completed + self.apps_degraded + self.apps_dropped
        if accounted != self.apps_injected:
            raise EmulationError(
                f"{self.apps_injected - accounted} of "
                f"{self.apps_injected} applications did not complete"
            )

    def response_percentiles(self) -> dict[str, float]:
        """Exact p50/p95/p99 response time over all completed apps, in ms."""
        samples = [t for ts in self.app_response_times.values() for t in ts]
        if not samples:
            return {}
        qs = np.percentile(samples, [50, 95, 99])
        return {f"p{p}_ms": round(to_msec(float(q)), 4) for p, q in zip((50, 95, 99), qs)}

    def mean_response_times(self) -> dict[str, float]:
        """Mean response time per application in ms (empty apps omitted)."""
        return {
            app: mean / 1000.0 for app, mean in self._response_means_us().items()
        }

    def _mode_summary(self) -> dict:
        """Summary keys only this class reports (placed before ``faults``)."""
        return {}

    def summary(self) -> dict:
        """Flat report dict (what ``run`` / ``perf`` print and the golden
        digests hash)."""
        energy = self.pe_energy()
        report = {
            "label": self.label,
            "config": self.config_label,
            "policy": self.policy_name,
            "apps_injected": self.apps_injected,
            "apps_completed": self.apps_completed,
            "apps_degraded": self.apps_degraded,
            "tasks": self.task_count,
            "makespan_ms": round(to_msec(self.makespan), 4),
            "makespan_s": round(to_sec(self.makespan), 6),
            "avg_sched_overhead_us": round(self.avg_scheduling_overhead(), 3),
            "sched_invocations": self.sched_invocations,
            "pe_utilization": {
                k: round(v, 4) for k, v in self.pe_utilization().items()
            },
            "pe_energy_j": {k: round(v, 6) for k, v in energy.items()},
            "total_energy_j": round(sum(energy.values()), 6),
            "mean_response_ms": {
                k: round(v, 4) for k, v in self.mean_response_times().items()
            },
        }
        report.update(self._mode_summary())
        if self.faults_enabled or self.fault_timeline or self.apps_degraded:
            report["faults"] = {
                "pe_failures": self.pe_failures,
                "transient_faults": self.transient_faults,
                "task_retries": self.task_retries,
                "tasks_requeued": self.tasks_requeued,
                "timeline": list(self.fault_timeline),
            }
            if self.fault_timeline_truncated:
                report["faults"]["timeline_truncated"] = self.fault_timeline_truncated
        # Conditional like "faults": runs without a QoS controller (and
        # without drops/fail-stops) keep today's byte-identical summaries.
        if self.qos_enabled or self.apps_dropped or self.watchdog_failstops:
            report["qos"] = {
                "apps_dropped": self.apps_dropped,
                "apps_on_time": self.apps_on_time,
                "apps_late": self.apps_late,
                "watchdog_failstops": self.watchdog_failstops,
                "response_percentiles": self.response_percentiles(),
                "mean_slack_us": {
                    app: round(mean, 3)
                    for app, mean in self._slack_means_us().items()
                },
            }
        if self.interrupted:
            report["interrupted"] = True
            report["interrupt_reason"] = self.interrupt_reason
        return report


class StreamingStats(EmulationStats):
    """Constant-memory sink for open-loop arrival streams.

    Per-app means are running (count, sum) aggregates and p50/p95/p99 are
    P² estimates, so memory stays O(1) however many apps stream through.
    ``task_records`` is an empty tuple (record consumers still iterate
    it); ``app_response_times`` and ``app_slack`` do not exist.
    """

    def _init_samples(self) -> None:
        self.task_records: tuple[TaskRecord, ...] = ()
        self._resp_agg: defaultdict[str, _MeanAgg] = defaultdict(_MeanAgg)
        self._slack_agg: defaultdict[str, _MeanAgg] = defaultdict(_MeanAgg)
        self._resp_tail = {
            50: P2Quantile(0.50), 95: P2Quantile(0.95), 99: P2Quantile(0.99),
        }

    def record_task(self, task, pe: ProcessingElement) -> None:
        start = task.start_time
        finish = task.finish_time
        usage = self.pe_usage[pe.name]
        usage.busy_time += finish - start
        usage.tasks_executed += 1
        if finish > self.emulation_end:
            self.emulation_end = finish

    def record_app_completion(self, instance) -> None:
        self.apps_completed += 1
        response = instance.response_time()
        self._resp_agg[instance.app_name].add(response)
        for est in self._resp_tail.values():
            est.add(response)
        self.emulation_end = max(self.emulation_end, instance.finish_time)
        if instance.deadline is not None:
            slack = instance.deadline - instance.finish_time
            self._slack_agg[instance.app_name].add(slack)
            if slack >= 0:
                self.apps_on_time += 1
            else:
                self.apps_late += 1

    def _timeline_append(self, now: float, kind: str, **fields) -> None:
        """Append under the streaming cap (call with the fault lock held)."""
        if len(self.fault_timeline) >= _TIMELINE_CAP:
            self.fault_timeline_truncated += 1
            return
        super()._timeline_append(now, kind, **fields)

    def _response_means_us(self) -> dict[str, float]:
        return {app: agg.mean() for app, agg in sorted(self._resp_agg.items())}

    def _slack_means_us(self) -> dict[str, float]:
        return {app: agg.mean() for app, agg in sorted(self._slack_agg.items())}

    def response_percentiles(self) -> dict[str, float]:
        """P² estimates of p50/p95/p99 response time, in ms."""
        if not self._resp_tail[50].count:
            return {}
        return {
            f"p{p}_ms": round(to_msec(est.value()), 4)
            for p, est in self._resp_tail.items()
        }

    def _mode_summary(self) -> dict:
        # Open-loop runs: tail latency is the headline number, so it is
        # reported unconditionally.
        return {
            "streaming": True,
            "response_percentiles": self.response_percentiles(),
        }
