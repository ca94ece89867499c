"""QoS/guardrail subsystem: deadlines, admission control, watchdogs, shutdown.

The paper's performance mode reports only *average* job completion time;
a long-running emulation service must also bound tail behavior — decide
which arrivals to admit under overload, account for missed deadlines, and
survive hung kernels and operator interrupts without losing results.
This module makes those guarantees declarative:

* :class:`QoSSpec` — a JSON-serializable description of one run's service
  objectives: per-application relative deadlines, an admission bound with
  an overload policy (``drop-newest`` / ``drop-oldest`` / ``defer``), and
  watchdog budgets (wall clock, modeled time, per-PE heartbeat timeout).
* :class:`QoSController` — the runtime object carried by the session.  It
  binds a spec to a thread-safe interrupt flag, so a signal handler (or a
  test) can request a graceful *drain*: backends stop injecting, let
  in-flight work finish, and return partial stats flagged
  ``interrupted=True`` instead of crashing or hanging.
* :class:`EDFScheduler` — a deadline-aware wrapper around any registered
  policy: the ready list is presented in earliest-deadline-first order
  (stable, so same-deadline tasks keep their FIFO order) before the
  wrapped policy runs.  Selected as ``<policy>+edf``, e.g. ``frfs+edf``.

Accounting contract (both backends): every presented arrival is admitted,
deferred, or shed, so

    ``apps_completed + apps_degraded + apps_dropped == apps_injected``

holds whenever a run finishes uninterrupted.  An *empty* spec (no
deadlines, no admission bound, no budgets) disables the whole machinery:
backends take their original code paths and results are bit-identical to
a run without any spec.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field, replace

from repro.common.errors import ReproError
from repro.common.jsondoc import number, section
from repro.runtime.schedulers.base import (
    Assignment,
    ExecutionTimeOracle,
    Scheduler,
)

#: Overload policies for the bounded admission queue.
OVERLOAD_POLICIES = ("drop-newest", "drop-oldest", "defer")

#: Key every application name can fall back to in a deadline map.
DEFAULT_DEADLINE_KEY = "*"


class QoSSpecError(ReproError):
    """A QoS specification is malformed or inconsistent."""


def _positive(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise QoSSpecError(f"{what} must be positive and finite, got {value}")
    return value


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded admission: at most ``max_pending`` applications in flight.

    An application is *in flight* from admission (injection into the
    emulation) until it completes, degrades, or is dropped.  An arrival
    that comes due at the bound is handled by ``policy``:

    * ``defer`` — backpressure only: the arrival waits in the workload
      queue and is admitted (late) once an in-flight app finishes.
    * ``drop-newest`` — the due arrival is shed.
    * ``drop-oldest`` — the oldest admitted application that has made no
      progress yet (nothing dispatched or completed) is shed to make room
      for the new arrival; with no such victim the arrival is shed
      instead.
    """

    max_pending: int
    policy: str = "defer"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise QoSSpecError(
                f"admission max_pending must be >= 1, got {self.max_pending}"
            )
        if self.policy not in OVERLOAD_POLICIES:
            raise QoSSpecError(
                f"unknown overload policy {self.policy!r} "
                f"(use one of {OVERLOAD_POLICIES})"
            )


@dataclass(frozen=True)
class QoSSpec:
    """Declarative QoS plan for one emulation (see module docstring)."""

    #: per-application relative deadlines in µs (measured from the app's
    #: nominal arrival time, so queueing delay counts against the budget);
    #: the ``"*"`` entry applies to every application not named explicitly
    deadlines: tuple[tuple[str, float], ...] = ()
    #: bounded admission + overload policy, or None for unbounded admission
    admission: AdmissionConfig | None = None
    #: wall-clock run budget in seconds (both backends)
    wall_budget_s: float | None = None
    #: modeled-time budget in µs (virtual backend only)
    virtual_budget_us: float | None = None
    #: threaded backend: a PE whose resource manager shows no heartbeat for
    #: this long while a task runs is fail-stopped as hung
    heartbeat_timeout_s: float | None = None
    #: optional short label used in DSE cell labels
    label: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for name, rel in self.deadlines:
            if name in seen:
                raise QoSSpecError(f"duplicate deadline entry for {name!r}")
            seen.add(name)
            _positive(rel, f"deadline for {name!r}")
        if self.wall_budget_s is not None:
            _positive(self.wall_budget_s, "wall_budget_s")
        if self.virtual_budget_us is not None:
            _positive(self.virtual_budget_us, "virtual_budget_us")
        if self.heartbeat_timeout_s is not None:
            _positive(self.heartbeat_timeout_s, "heartbeat_timeout_s")

    @property
    def is_empty(self) -> bool:
        """True when the spec asks for nothing — backends skip all QoS code."""
        return (
            not self.deadlines
            and self.admission is None
            and self.wall_budget_s is None
            and self.virtual_budget_us is None
            and self.heartbeat_timeout_s is None
        )

    def deadline_for(self, app_name: str) -> float | None:
        """Relative deadline (µs) for one application, or None."""
        fallback: float | None = None
        for name, rel in self.deadlines:
            if name == app_name:
                return rel
            if name == DEFAULT_DEADLINE_KEY:
                fallback = rel
        return fallback

    # -- (de)serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {}
        if self.deadlines:
            doc["deadlines"] = {name: rel for name, rel in self.deadlines}
        if self.admission is not None:
            doc["admission"] = {
                "max_pending": self.admission.max_pending,
                "policy": self.admission.policy,
            }
        watchdog: dict = {}
        if self.wall_budget_s is not None:
            watchdog["wall_budget_s"] = self.wall_budget_s
        if self.virtual_budget_us is not None:
            watchdog["virtual_budget_us"] = self.virtual_budget_us
        if self.heartbeat_timeout_s is not None:
            watchdog["heartbeat_timeout_s"] = self.heartbeat_timeout_s
        if watchdog:
            doc["watchdog"] = watchdog
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "QoSSpec":
        err = QoSSpecError
        data = section(
            data, "QoS spec", ("deadlines", "admission", "watchdog", "label"), err
        )
        deadlines = tuple(
            (str(name), number(rel, float, f"deadline for {name!r}", err))
            for name, rel in sorted(
                section(data.get("deadlines", {}), "deadlines", None, err).items()
            )
        )
        admission = None
        adm = data.get("admission")
        if adm is not None:
            adm = section(adm, "admission", ("max_pending", "policy"), err)
            if "max_pending" not in adm:
                raise err("admission must be an object with a max_pending bound")
            admission = AdmissionConfig(
                max_pending=number(
                    adm["max_pending"], int, "admission.max_pending", err
                ),
                policy=str(adm.get("policy", "defer")),
            )
        watchdog = section(data.get("watchdog", {}), "watchdog", (
            "wall_budget_s", "virtual_budget_us", "heartbeat_timeout_s",
        ), err)

        def opt(key: str) -> float | None:
            value = watchdog.get(key)
            return None if value is None else number(
                value, float, f"watchdog.{key}", err
            )

        return cls(
            deadlines=deadlines,
            admission=admission,
            wall_budget_s=opt("wall_budget_s"),
            virtual_budget_us=opt("virtual_budget_us"),
            heartbeat_timeout_s=opt("heartbeat_timeout_s"),
            label=str(data.get("label", "")),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "QoSSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise QoSSpecError(f"cannot load QoS spec {path!r}: {exc}") from exc
        return cls.from_dict(data)


class QoSController:
    """One run's QoS runtime: a spec plus a thread-safe interrupt flag.

    The controller is what signal handlers (and tests) talk to: calling
    :meth:`request_interrupt` asks the running backend to drain — finish
    in-flight tasks, stop injecting, flush partial stats flagged
    ``interrupted`` — instead of dying mid-run.  Backends poll
    :meth:`poll` once per workload-manager pass; the check is a couple of
    attribute reads, so it costs nothing measurable even on the virtual
    backend's hot loop.
    """

    def __init__(
        self,
        spec: QoSSpec | dict | None = None,
        *,
        wall_budget_s: float | None = None,
    ) -> None:
        if isinstance(spec, dict):
            spec = QoSSpec.from_dict(spec)
        spec = spec if spec is not None else QoSSpec()
        if wall_budget_s is not None:
            spec = replace(spec, wall_budget_s=_positive(
                wall_budget_s, "wall_budget_s"
            ))
        self.spec = spec
        self._interrupt = threading.Event()
        self.interrupt_reason = ""
        self._t0: float | None = None

    # -- interrupt flag (thread/signal safe) -----------------------------------------

    def request_interrupt(self, reason: str = "signal") -> None:
        """Ask the running backend to drain and flush partial results."""
        if not self._interrupt.is_set():
            self.interrupt_reason = reason
            self._interrupt.set()

    @property
    def interrupted(self) -> bool:
        return self._interrupt.is_set()

    # -- run-scoped state ------------------------------------------------------------

    def start_run(self) -> None:
        """Backends call this once at run start (arms the wall budget)."""
        self._t0 = time.perf_counter()

    def poll(self, modeled_us: float | None = None) -> str | None:
        """Reason to stop now (``"signal" | "wall_budget" | ...``), or None."""
        if self._interrupt.is_set():
            return self.interrupt_reason or "signal"
        spec = self.spec
        if (
            spec.virtual_budget_us is not None
            and modeled_us is not None
            and modeled_us > spec.virtual_budget_us
        ):
            return "virtual_budget"
        if (
            spec.wall_budget_s is not None
            and self._t0 is not None
            and time.perf_counter() - self._t0 > spec.wall_budget_s
        ):
            return "wall_budget"
        return None

    # -- convenience accessors ---------------------------------------------------------

    @property
    def admission(self) -> AdmissionConfig | None:
        return self.spec.admission

    @property
    def heartbeat_timeout_us(self) -> float | None:
        if self.spec.heartbeat_timeout_s is None:
            return None
        return self.spec.heartbeat_timeout_s * 1e6

    def assign_deadline(self, instance) -> None:
        """Stamp one instance's absolute deadline (arrival + relative).

        Streaming runs call this per instance at injection; materialized
        runs batch it via :meth:`assign_deadlines` at session build.
        """
        if not self.spec.deadlines:
            return
        rel = self.spec.deadline_for(instance.app_name)
        if rel is not None:
            instance.deadline = instance.arrival_time + rel

    def assign_deadlines(self, instances) -> None:
        """Stamp each instance's absolute deadline (arrival + relative)."""
        if not self.spec.deadlines:
            return
        for instance in instances:
            self.assign_deadline(instance)


def make_qos(qos: "QoSController | QoSSpec | dict | None") -> QoSController | None:
    """Normalize a QoS input into a controller, or None when inert.

    A :class:`QoSController` passed explicitly is kept even when its spec
    is empty — callers that install signal handlers need the live
    interrupt flag — while an empty *spec* (or ``None``) resolves to None
    so the backends keep their original fast paths.
    """
    if qos is None:
        return None
    if isinstance(qos, QoSController):
        return qos
    if isinstance(qos, dict):
        qos = QoSSpec.from_dict(qos)
    if qos.is_empty:
        return None
    return QoSController(qos)


class EDFScheduler(Scheduler):
    """Earliest-deadline-first tie-break around any registered policy.

    The wrapped policy sees the ready list sorted by absolute application
    deadline (apps without a deadline sort last); the sort is stable, so
    tasks with equal deadlines keep their FIFO order and a run without
    deadlines behaves exactly like the bare policy.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.name = f"{inner.name}+edf"
        self.uses_reservation = inner.uses_reservation
        # Stateful inner policies (cprank/rollout) still see WM events
        # through the wrapper.
        self.wants_events = inner.wants_events

    # The oracle is attached by the backend after construction; the inner
    # policy is what actually consumes it.
    @property
    def oracle(self) -> ExecutionTimeOracle | None:
        return self.inner.oracle

    @oracle.setter
    def oracle(self, oracle: ExecutionTimeOracle | None) -> None:
        self.inner.oracle = oracle

    def notify_dispatch(self, assignments, now: float) -> None:
        self.inner.notify_dispatch(assignments, now)

    def notify_completion(self, task, now: float) -> None:
        self.inner.notify_completion(task, now)

    def notify_pe_failure(self, handler, now: float) -> None:
        self.inner.notify_pe_failure(handler, now)

    @staticmethod
    def _deadline_key(task) -> float:
        deadline = task.app.deadline
        return deadline if deadline is not None else math.inf

    def schedule(self, ready, handlers, now: float) -> list[Assignment]:
        wanted = getattr(ready, "wanted", None)
        if wanted is None:
            ordered = list(ready)
        else:
            # Capabilities do not depend on order: the sorted copy answers
            # Scheduler.usable_idle's question from the list it came from.
            ordered = _DeadlineOrdered(ready)
            ordered.wanted = wanted
        ordered.sort(key=self._deadline_key)
        return self.inner.schedule(ordered, handlers, now)


class _DeadlineOrdered(list):
    """The EDF-sorted ready tasks, still carrying ``ReadyList.wanted``."""

    __slots__ = ("wanted",)
