"""Four quick timing-only workloads, shared by ``test_perf_bench`` (the
lookahead pins) and ``test_serving`` (the serving conservation checks).

All run on zcu102 3C+2F, seed 7, jitter on: a Poisson stream near
capacity under EFT, a flash crowd under QoS admission + EDF, and the long
ready queues of cprank (HEFT's ranks over ``eft_pass``) and rollout
(forward simulator).
"""

from __future__ import annotations

from repro.hardware.platform import zcu102
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import ArrivalSpec, validation_workload

_SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}
_QUICK_POISSON = {"kind": "poisson", "rate_per_ms": 1.5, "apps": _SDR_MIX,
                  "duration_ms": 200.0, "seed": 42}

QUICK_WORKLOADS = {
    "serving-openloop": {"policy": "eft", "arrivals": _QUICK_POISSON},
    "serving-flashcrowd": {
        "policy": "eft+edf",
        "arrivals": {"kind": "bursty", "rate_per_ms": 0.5, "apps": _SDR_MIX,
                     "bursts": [[50.0, 50.0, 8.0]], "duration_ms": 250.0,
                     "seed": 17},
        "qos": {"deadlines": {"*": 2000.0},
                "admission": {"max_pending": 64, "policy": "drop-newest"}},
    },
    "lookahead-cprank": {
        "policy": "cprank",
        "apps": {"range_detection": 8, "wifi_tx": 6, "pulse_doppler": 1},
    },
    "lookahead-rollout": {"policy": "rollout", "arrivals": _QUICK_POISSON},
}


def run_quick(name: str):
    """One :data:`QUICK_WORKLOADS` run: its stats and the number of engine
    events it fired."""
    spec = QUICK_WORKLOADS[name]
    emu = Emulation(
        platform=zcu102(),
        config="3C+2F",
        policy=spec["policy"],
        materialize_memory=False,
        jitter=True,
        seed=7,
        qos=spec.get("qos"),
    )
    if "arrivals" in spec:
        workload = ArrivalSpec.from_dict(spec["arrivals"]).build()
    else:
        workload = validation_workload(spec["apps"])
    backend = VirtualBackend()
    stats = emu.run(workload, backend).stats
    return stats, backend.last_run_info["events_fired"]
