"""Canonical benchmark scenarios.

Each scenario fixes one load shape the virtual backend must be fast at:

* ``validation-burst`` — everything arrives at t=0 (the paper's
  validation mode): stresses injection and the dispatch handshake.
* ``steady-state`` — performance-mode Table II workload at a sustained
  injection rate: stresses the workload-manager wait/wake loop.
* ``scheduler-stress`` — a large t=0 burst under EFT so the ready queue
  stays long: stresses the O(ready × PEs) policy path and the ready-list
  data structure.
* ``accel-heavy`` — FFT-bound applications on a 2C+2F DSSoC: stresses
  the accelerator DMA/compute path and host-core contention (the Fig. 9
  preemption mechanism).

The serving family (``SERVING_SCENARIOS``) exercises the streaming
open-loop path — apps built lazily at injection, released at completion,
streaming stats — so the tracked numbers include peak RSS:

* ``serving-openloop`` — sustained Poisson arrivals of mixed SDR apps
  near platform capacity.
* ``serving-flashcrowd`` — a flash crowd over a steady baseline, with
  QoS deadlines, bounded admission (drop-newest), and ``+edf``.
* ``serving-openloop-100k`` / ``serving-openloop-1m`` — the memory
  scaling pair: 10^5 vs 10^6 injected apps at the same offered load;
  constant-memory injection means their peak RSS must be about equal.

The lookahead family (``LOOKAHEAD_SCENARIOS``, also opt-in by name)
reruns the scheduler-stress and serving-openloop load shapes under the
lookahead policies, timing the cprank rank cache and the rollout
forward simulator under long ready queues.

Scenarios are deterministic (fixed seed, fixed workload) so that two
reports from the same commit agree and cross-commit deltas mean code,
not luck.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.errors import ReproError


@dataclass(frozen=True)
class BenchScenario:
    """One reproducible emulation whose wall time we track."""

    name: str
    description: str
    platform: str = "zcu102"
    config: str = "3C+2F"
    policy: str = "frfs"
    #: "validation" (apps at t=0), "table_ii" (performance mode), or
    #: "openloop" (streaming arrivals, lazy injection)
    mode: str = "validation"
    apps: tuple[tuple[str, int], ...] = ()
    quick_apps: tuple[tuple[str, int], ...] = ()
    rate: float = 0.0
    quick_rate: float = 0.0
    #: openloop mode: ArrivalSpec dict forms (see runtime.workload)
    arrivals: dict = field(default_factory=dict)
    quick_arrivals: dict = field(default_factory=dict)
    #: openloop mode: QoS spec dict (admission/deadlines), or empty
    qos: dict = field(default_factory=dict)
    seed: int = 7
    jitter: bool = True

    def workload(self, *, quick: bool = False):
        if self.mode == "table_ii":
            from repro.experiments.workloads import table_ii_workload

            rate = self.quick_rate if quick and self.quick_rate else self.rate
            return table_ii_workload(rate)
        if self.mode == "openloop":
            from repro.runtime.workload import ArrivalSpec

            arrivals = (
                self.quick_arrivals
                if quick and self.quick_arrivals
                else self.arrivals
            )
            return ArrivalSpec.from_dict(arrivals).build()
        from repro.runtime.workload import validation_workload

        apps = self.quick_apps if quick and self.quick_apps else self.apps
        return validation_workload(dict(apps))

    def build_emulation(self):
        from repro.hardware.platform import platform_by_name
        from repro.runtime.emulation import Emulation

        return Emulation(
            platform=platform_by_name(self.platform),
            config=self.config,
            policy=self.policy,
            materialize_memory=False,
            jitter=self.jitter,
            seed=self.seed,
            qos=dict(self.qos) if self.qos else None,
        )

    def run_once(self, *, quick: bool = False) -> dict:
        """Execute once; only the emulation phase itself is timed.

        Workload construction and session setup (the paper's
        initialization phase) are excluded from the clock so the number
        tracks the DES hot loop, not JSON parsing.  Peak RSS, in
        contrast, covers workload construction too — materialized-list
        memory is exactly what the streaming path exists to avoid, so it
        must not be excluded from the measurement.
        """
        from repro.perf.rss import peak_rss_bytes, reset_peak_rss
        from repro.runtime.backends.virtual import VirtualBackend

        emu = self.build_emulation()
        reset_peak_rss()
        workload = self.workload(quick=quick)
        session = emu.build_session(workload)
        backend = VirtualBackend()
        t0 = time.perf_counter()
        stats = backend.run(session)
        wall_s = time.perf_counter() - t0
        peak_rss = peak_rss_bytes()
        info = backend.last_run_info or {}
        return {
            "wall_s": wall_s,
            "events": info.get("events_fired", 0),
            "tasks": stats.task_count,
            "apps": stats.apps_completed,
            "apps_injected": stats.apps_injected,
            "apps_degraded": stats.apps_degraded,
            "apps_dropped": stats.apps_dropped,
            "makespan_ms": round(stats.makespan / 1000.0, 4),
            "sched_invocations": stats.sched_invocations,
            "peak_rss_bytes": peak_rss,
        }

    def spec(self, *, quick: bool = False) -> dict:
        """The scenario's identity, embedded in every report."""
        doc: dict = {
            "description": self.description,
            "platform": self.platform,
            "config": self.config,
            "policy": self.policy,
            "mode": self.mode,
            "seed": self.seed,
            "jitter": self.jitter,
        }
        if self.mode == "table_ii":
            doc["rate"] = (
                self.quick_rate if quick and self.quick_rate else self.rate
            )
        elif self.mode == "openloop":
            doc["arrivals"] = dict(
                self.quick_arrivals
                if quick and self.quick_arrivals
                else self.arrivals
            )
            if self.qos:
                doc["qos"] = dict(self.qos)
        else:
            apps = self.quick_apps if quick and self.quick_apps else self.apps
            doc["apps"] = dict(apps)
        return doc


SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="validation-burst",
        description="t=0 burst of mixed SDR apps, FRFS on 3C+2F",
        policy="frfs",
        apps=(("range_detection", 8), ("wifi_tx", 6), ("wifi_rx", 4)),
        quick_apps=(("range_detection", 3), ("wifi_tx", 2)),
    ),
    BenchScenario(
        name="steady-state",
        description="performance-mode Table II trace at 4.57 jobs/ms, FRFS",
        policy="frfs",
        mode="table_ii",
        rate=4.57,
        quick_rate=1.71,
        jitter=False,
    ),
    BenchScenario(
        name="scheduler-stress",
        description="long ready queues under EFT (O(ready x PEs) policy)",
        policy="eft",
        apps=(("range_detection", 20), ("wifi_tx", 15), ("pulse_doppler", 5)),
        quick_apps=(("range_detection", 8), ("wifi_tx", 6),
                    ("pulse_doppler", 1)),
    ),
    BenchScenario(
        name="accel-heavy",
        description="FFT-bound apps on 2C+2F (DMA + core contention)",
        config="2C+2F",
        policy="frfs",
        apps=(("range_detection", 12), ("pulse_doppler", 3)),
        quick_apps=(("range_detection", 4), ("pulse_doppler", 1)),
    ),
)

_SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}

SERVING_SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="serving-openloop",
        description="sustained Poisson open-loop near capacity, EFT",
        policy="eft",
        mode="openloop",
        arrivals={"kind": "poisson", "rate_per_ms": 3.5, "apps": _SDR_MIX,
                  "duration_ms": 1500.0, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 1.5,
                        "apps": _SDR_MIX, "duration_ms": 200.0, "seed": 42},
    ),
    BenchScenario(
        name="serving-flashcrowd",
        description="flash crowd over steady baseline; QoS admission + EDF",
        policy="eft+edf",
        mode="openloop",
        arrivals={"kind": "bursty", "rate_per_ms": 1.0, "apps": _SDR_MIX,
                  "bursts": [[400.0, 150.0, 10.0], [900.0, 100.0, 8.0]],
                  "duration_ms": 1500.0, "seed": 17},
        quick_arrivals={"kind": "bursty", "rate_per_ms": 0.5,
                        "apps": _SDR_MIX,
                        "bursts": [[50.0, 50.0, 8.0]],
                        "duration_ms": 250.0, "seed": 17},
        qos={"deadlines": {"*": 2000.0},
             "admission": {"max_pending": 64, "policy": "drop-newest"}},
    ),
    BenchScenario(
        name="serving-openloop-100k",
        description="10^5 apps at 4/ms (memory-scaling pair, small half)",
        policy="frfs",
        mode="openloop",
        arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                  "apps": {"range_detection": 1.0},
                  "max_apps": 100_000, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                        "apps": {"range_detection": 1.0},
                        "max_apps": 2_000, "seed": 42},
    ),
    BenchScenario(
        name="serving-openloop-1m",
        description="10^6 apps at 4/ms (memory-scaling pair, large half)",
        policy="frfs",
        mode="openloop",
        arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                  "apps": {"range_detection": 1.0},
                  "max_apps": 1_000_000, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                        "apps": {"range_detection": 1.0},
                        "max_apps": 10_000, "seed": 42},
    ),
)

#: Lookahead-policy stress pair (opt-in by name, like the serving family):
#: the same load shapes as ``scheduler-stress``/``serving-openloop`` but
#: under the lookahead policies, so regressions in the rank cache
#: (cprank) or the rollout simulator show up as wall-time deltas rather
#: than only as scheduling-overhead stats inside an emulation report.
LOOKAHEAD_SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="lookahead-cprank",
        description="long ready queues under cprank (rank cache + repair)",
        policy="cprank",
        apps=(("range_detection", 20), ("wifi_tx", 15), ("pulse_doppler", 5)),
        quick_apps=(("range_detection", 8), ("wifi_tx", 6),
                    ("pulse_doppler", 1)),
    ),
    BenchScenario(
        name="lookahead-rollout",
        description="sustained Poisson open-loop under rollout lookahead",
        policy="rollout",
        mode="openloop",
        arrivals={"kind": "poisson", "rate_per_ms": 3.5, "apps": _SDR_MIX,
                  "duration_ms": 1500.0, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 1.5,
                        "apps": _SDR_MIX, "duration_ms": 200.0, "seed": 42},
    ),
)

_BY_NAME = {s.name: s for s in SCENARIOS}
_BY_NAME.update({s.name: s for s in SERVING_SCENARIOS})
_BY_NAME.update({s.name: s for s in LOOKAHEAD_SCENARIOS})


def scenario_names() -> list[str]:
    """The default suite (serving scenarios are opt-in by name)."""
    return [s.name for s in SCENARIOS]


def all_scenario_names() -> list[str]:
    return list(_BY_NAME)


def get_scenario(name: str) -> BenchScenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"unknown bench scenario {name!r} "
            f"(available: {all_scenario_names()})"
        ) from None
