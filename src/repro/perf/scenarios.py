"""Benchmark scenarios for what the measurement spine does not run.

Speed claims come from ``benchmarks/spine/``.  These six scenarios are
what only ``dssoc-emulate bench`` measures:

* ``serving-openloop`` — sustained Poisson arrivals of mixed SDR apps
  near platform capacity, EFT; and ``serving-flashcrowd`` — a flash
  crowd over a steady baseline, with QoS deadlines, bounded admission
  (drop-newest), and ``+edf``.  Their quick forms are CI's streaming
  smoke and, with the lookahead pair, its cross-core bit-identity smoke.
* ``serving-openloop-100k`` / ``serving-openloop-1m`` — the memory
  scaling pair: 10^5 vs 10^6 injected apps at the same offered load;
  constant-memory injection means their peak RSS must be about equal.
* ``lookahead-cprank`` / ``lookahead-rollout`` — a long t=0 burst under
  cprank (rank cache and repair) and the ``serving-openloop`` stream
  under rollout's forward simulator.

A scenario with ``apps`` is a validation-mode burst (everything at
t=0); one with ``arrivals`` is an open-loop stream (apps built lazily at
injection, released at completion, streaming stats).  Every scenario
runs on the same platform, configuration and seed, with jitter on, so
two reports from the same commit agree and cross-commit deltas mean
code, not luck.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.common.errors import ReproError

PLATFORM = "zcu102"
CONFIG = "3C+2F"
SEED = 7
JITTER = True


@dataclass(frozen=True)
class BenchScenario:
    """One reproducible emulation whose wall time we track."""

    name: str
    description: str
    policy: str
    #: validation mode: app name -> count, all injected at t=0
    apps: tuple[tuple[str, int], ...] = ()
    quick_apps: tuple[tuple[str, int], ...] = ()
    #: openloop mode: ArrivalSpec dict forms (see runtime.workload)
    arrivals: dict = field(default_factory=dict)
    quick_arrivals: dict = field(default_factory=dict)
    #: openloop mode: QoS spec dict (admission/deadlines), or empty
    qos: dict = field(default_factory=dict)

    def _apps(self, quick: bool) -> dict:
        return dict(self.quick_apps if quick and self.quick_apps else self.apps)

    def _arrivals(self, quick: bool) -> dict:
        return dict(
            self.quick_arrivals if quick and self.quick_arrivals
            else self.arrivals
        )

    def workload(self, *, quick: bool = False):
        if self.arrivals:
            from repro.runtime.workload import ArrivalSpec

            return ArrivalSpec.from_dict(self._arrivals(quick)).build()
        from repro.runtime.workload import validation_workload

        return validation_workload(self._apps(quick))

    def build_emulation(self):
        from repro.hardware.platform import platform_by_name
        from repro.runtime.emulation import Emulation

        return Emulation(
            platform=platform_by_name(PLATFORM),
            config=CONFIG,
            policy=self.policy,
            materialize_memory=False,
            jitter=JITTER,
            seed=SEED,
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
            "apps_completed": stats.apps_completed,
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
            "platform": PLATFORM,
            "config": CONFIG,
            "policy": self.policy,
            "mode": "openloop" if self.arrivals else "validation",
            "seed": SEED,
            "jitter": JITTER,
        }
        if self.arrivals:
            doc["arrivals"] = self._arrivals(quick)
            if self.qos:
                doc["qos"] = dict(self.qos)
        else:
            doc["apps"] = self._apps(quick)
        return doc


_SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}

SCENARIOS: tuple[BenchScenario, ...] = (
    BenchScenario(
        name="serving-openloop",
        description="sustained Poisson open-loop near capacity, EFT",
        policy="eft",
        arrivals={"kind": "poisson", "rate_per_ms": 3.5, "apps": _SDR_MIX,
                  "duration_ms": 1500.0, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 1.5,
                        "apps": _SDR_MIX, "duration_ms": 200.0, "seed": 42},
    ),
    BenchScenario(
        name="serving-flashcrowd",
        description="flash crowd over steady baseline; QoS admission + EDF",
        policy="eft+edf",
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
        arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                  "apps": {"range_detection": 1.0},
                  "max_apps": 1_000_000, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 4.0,
                        "apps": {"range_detection": 1.0},
                        "max_apps": 10_000, "seed": 42},
    ),
    # The lookahead pair times cprank's rank cache and rollout's forward
    # simulator under long ready queues as wall time, not only as the
    # scheduling-overhead stats inside an emulation report.
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
        arrivals={"kind": "poisson", "rate_per_ms": 3.5, "apps": _SDR_MIX,
                  "duration_ms": 1500.0, "seed": 42},
        quick_arrivals={"kind": "poisson", "rate_per_ms": 1.5,
                        "apps": _SDR_MIX, "duration_ms": 200.0, "seed": 42},
    ),
)

_BY_NAME = {s.name: s for s in SCENARIOS}


def scenario_names() -> list[str]:
    return list(_BY_NAME)


def get_scenario(name: str) -> BenchScenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ReproError(
            f"unknown bench scenario {name!r} "
            f"(available: {scenario_names()})"
        ) from None
