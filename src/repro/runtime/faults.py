"""Fault-tolerance subsystem: declarative fault specs and deterministic injection.

The paper frames resource handlers as the place where runtime decisions
react to PE state (Sec. II-C); DS3-style design-space exploration treats
resilience what-ifs as a first-class simulation axis.  This module makes PE
failure a *schedulable* state:

* :class:`FaultSpec` — a declarative, JSON-serializable description of the
  faults to inject into one emulation: permanent per-PE fail-at-time
  events, a transient kernel-exception probability, accelerator DMA/device
  error probability, and per-PE stall/slowdown factors.
* :class:`FaultInjector` — the runtime object built from a spec plus the
  session's seeded RNG factory.  Every random decision draws from a named
  per-PE stream, so a fixed seed replays the exact same fault sequence on
  the virtual backend (same workload, same policy, same failures).

Semantics shared by both backends:

* **Permanent PE failure** (``pe_failures``): at the given time the PE
  transitions to ``PEStatus.FAILED`` under its handler lock.  Its in-flight
  task and any reservation-queue bookings are requeued onto the workload
  manager's ready list and the policy re-runs with failed PEs excluded.
* **Transient kernel fault** (``transient_prob`` / ``accel_error_prob``):
  each execution attempt may fail; the resource manager retries in place
  with linear backoff up to ``max_retries`` times.  When retries are
  exhausted the task is handed back to the workload manager for
  rescheduling (at most ``max_requeues`` times, then its application is
  recorded as *degraded* instead of crashing the run).
* **Degraded completion**: an application whose remaining tasks have no
  live capable PE is terminally degraded — counted in
  ``EmulationStats.apps_degraded`` with a timeline event — so
  ``apps_completed + apps_degraded == apps_injected`` always holds.
* **Slowdown** (``slowdown``): a multiplicative stall factor on a PE's
  modeled service time (virtual backend) or post-kernel stall (threaded).

An *empty* spec (no failures, zero probabilities, no slowdown, hardening
off) builds no injector, and its results are bit-identical to a run
without any spec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ReproError
from repro.common.jsondoc import number, section
from repro.common.rng import SeedSequenceFactory


class FaultSpecError(ReproError):
    """A fault specification is malformed or inconsistent."""


class InjectedKernelFault(Exception):
    """Raised inside a resource manager to model a transient kernel fault.

    Internal to the fault machinery: it is always caught by the retry loop
    and never escapes a backend.
    """

    def __init__(self, kind: str) -> None:
        super().__init__(f"injected {kind} fault")
        self.kind = kind


@dataclass(frozen=True)
class PEFailure:
    """One permanent failure event: PE (by name or type) fails at ``at_us``."""

    pe: str
    at_us: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at_us) and self.at_us >= 0):
            raise FaultSpecError(
                f"PE failure at_us must be finite and >= 0, got {self.at_us} "
                f"for {self.pe!r}"
            )

    def matches(self, handler) -> bool:
        """Does this entry apply to ``handler``?  Name match wins; a type
        name (e.g. ``"fft"``) fails every PE of that type."""
        return self.pe in (handler.name, handler.type_name)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault plan for one emulation (see module docstring)."""

    pe_failures: tuple[PEFailure, ...] = ()
    #: per-attempt probability of a transient kernel exception (any PE)
    transient_prob: float = 0.0
    #: additional per-attempt probability of a DMA/device error (accel PEs)
    accel_error_prob: float = 0.0
    #: in-place retries per PE before the task is handed back to the WM
    max_retries: int = 2
    #: linear backoff step between retries (modeled µs / wall-clock µs)
    backoff_us: float = 50.0
    #: WM-level reschedules of one task before its app is degraded
    max_requeues: int = 3
    #: per-PE (name or type) service-time stall factors, as ordered pairs
    slowdown: tuple[tuple[str, float], ...] = ()
    #: retry *real* kernel exceptions in the threaded backend even when no
    #: fault is injected (crash hardening for flaky kernels)
    harden: bool = False
    #: optional short label used in DSE cell labels
    label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_prob <= 1.0:
            raise FaultSpecError(
                f"transient_prob must be in [0, 1], got {self.transient_prob}"
            )
        if not 0.0 <= self.accel_error_prob <= 1.0:
            raise FaultSpecError(
                f"accel_error_prob must be in [0, 1], got {self.accel_error_prob}"
            )
        if self.max_retries < 0:
            raise FaultSpecError("max_retries must be >= 0")
        if self.max_requeues < 0:
            raise FaultSpecError("max_requeues must be >= 0")
        if not (math.isfinite(self.backoff_us) and self.backoff_us >= 0):
            raise FaultSpecError(
                f"backoff_us must be finite and >= 0, got {self.backoff_us}"
            )
        for name, factor in self.slowdown:
            if not (math.isfinite(factor) and factor >= 1.0):
                raise FaultSpecError(
                    f"slowdown factor must be finite and >= 1.0, got {factor} "
                    f"for {name!r}"
                )

    @property
    def is_empty(self) -> bool:
        """True when the spec injects nothing — backends skip all fault code."""
        return (
            not self.pe_failures
            and self.transient_prob == 0.0
            and self.accel_error_prob == 0.0
            and not self.slowdown
            and not self.harden
        )

    # -- (de)serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        doc: dict = {}
        if self.pe_failures:
            doc["pe_failures"] = [
                {"pe": f.pe, "at_us": f.at_us} for f in self.pe_failures
            ]
        if self.transient_prob or self.accel_error_prob:
            doc["transient"] = {
                "prob": self.transient_prob,
                "accel_prob": self.accel_error_prob,
            }
        doc["retry"] = {
            "max_retries": self.max_retries,
            "backoff_us": self.backoff_us,
            "max_requeues": self.max_requeues,
        }
        if self.slowdown:
            doc["slowdown"] = dict(self.slowdown)
        if self.harden:
            doc["harden"] = True
        if self.label:
            doc["label"] = self.label
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        err = FaultSpecError
        data = section(data, "fault spec", (
            "pe_failures", "transient", "retry", "slowdown", "harden", "label",
        ), err)
        transient = section(
            data.get("transient", {}), "transient", ("prob", "accel_prob"), err
        )
        retry = section(data.get("retry", {}), "retry", (
            "max_retries", "backoff_us", "max_requeues",
        ), err)
        entries = data.get("pe_failures", [])
        if not isinstance(entries, list):
            raise err("pe_failures must be a list of {pe, at_us} objects")
        failures = []
        for j, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"pe", "at_us"}:
                raise err(f"pe_failures #{j} must have exactly pe and at_us, "
                          f"got {entry!r}")
            at_us = number(entry["at_us"], float, f"pe_failures #{j} at_us", err)
            failures.append(PEFailure(pe=str(entry["pe"]), at_us=at_us))
        slowdown = tuple(
            (str(name), number(factor, float, f"slowdown for {name!r}", err))
            for name, factor in sorted(
                section(data.get("slowdown", {}), "slowdown", None, err).items()
            )
        )
        return cls(
            pe_failures=tuple(failures),
            transient_prob=number(
                transient.get("prob", 0.0), float, "transient.prob", err),
            accel_error_prob=number(
                transient.get("accel_prob", 0.0), float, "transient.accel_prob", err),
            max_retries=number(
                retry.get("max_retries", 2), int, "retry.max_retries", err),
            backoff_us=number(
                retry.get("backoff_us", 50.0), float, "retry.backoff_us", err),
            max_requeues=number(
                retry.get("max_requeues", 3), int, "retry.max_requeues", err),
            slowdown=slowdown,
            harden=bool(data.get("harden", False)),
            label=str(data.get("label", "")),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "FaultSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultSpecError(f"cannot load fault spec {path!r}: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class FaultInjector:
    """Runtime fault source: a spec bound to the session's seeded RNG.

    One injector serves one emulation run.  Per-PE decision streams are
    derived by name (``faults/<pe-name>``) so a PE's fault sequence depends
    only on the seed and on how many attempts *that PE* has executed —
    deterministic under the virtual backend's deterministic schedule.
    """

    spec: FaultSpec
    seeds: SeedSequenceFactory
    _streams: dict[str, np.random.Generator] = field(default_factory=dict)

    # -- permanent failures --------------------------------------------------------

    def fail_at(self, handler) -> float | None:
        """Earliest scheduled permanent-failure time for this PE, or None."""
        times = [f.at_us for f in self.spec.pe_failures if f.matches(handler)]
        return min(times) if times else None

    # -- transient faults ----------------------------------------------------------

    def _stream(self, pe_name: str) -> np.random.Generator:
        rng = self._streams.get(pe_name)
        if rng is None:
            rng = self.seeds.rng("faults", pe_name)
            self._streams[pe_name] = rng
        return rng

    def draw_fault(self, handler) -> str | None:
        """One per-attempt draw: ``"accel"``, ``"transient"``, or None.

        Accelerator PEs stack the DMA/device error probability on top of
        the generic transient probability; CPU PEs see only the latter.
        Probability-zero configurations consume no RNG state.
        """
        p_transient = self.spec.transient_prob
        p_accel = (
            self.spec.accel_error_prob if handler.pe.pe_type.is_accelerator else 0.0
        )
        if p_transient <= 0.0 and p_accel <= 0.0:
            return None
        u = float(self._stream(handler.name).random())
        if u < p_accel:
            return "accel"
        if u < p_accel + p_transient:
            return "transient"
        return None

    # -- retry policy --------------------------------------------------------------

    @property
    def max_retries(self) -> int:
        return self.spec.max_retries

    @property
    def max_requeues(self) -> int:
        return self.spec.max_requeues

    @property
    def harden(self) -> bool:
        return self.spec.harden

    def backoff_us(self, attempt: int) -> float:
        """Linear backoff: ``attempt`` is 1-based."""
        return self.spec.backoff_us * attempt

    # -- slowdown ------------------------------------------------------------------

    def slowdown_for(self, handler) -> float:
        """Multiplicative stall factor for this PE (1.0 = nominal)."""
        factor = 1.0
        for name, value in self.spec.slowdown:
            if name in (handler.name, handler.type_name):
                factor = max(factor, value)
        return factor


def make_injector(
    spec: "FaultSpec | dict | None", seeds: SeedSequenceFactory
) -> FaultInjector | None:
    """Build an injector, or None when the spec is absent or empty."""
    if spec is None:
        return None
    if isinstance(spec, dict):
        spec = FaultSpec.from_dict(spec)
    if spec.is_empty:
        return None
    return FaultInjector(spec, seeds.spawn("faults"))
