"""A PE fails while its resource manager (RM) is in each of its states.

The virtual backend's RM for a PE is waiting for work, charging a DMA-in
transfer on its host core, sleeping while the device computes, charging a
CPU kernel, or backing off before a retry.  A fail-stop in any of them
abandons the RM: whatever it had scheduled still fires (the engine cancels
nothing) but must not run the dead RM on, and a charge in flight keeps
charging its host core.  Each case below pins the whole run — every task
record, the summary and the engine counters — so a dead RM that acts
again, or a fail-stop that drops or adds an engine entry, fails here.

The session is two range-detection and two WiFi-TX apps on 3C+2F under
FRFS, jitter off.  Without a failure the windows are (µs):

* ``fft1`` is idle until 49.8;
* ``fft0`` charges its first DMA-in over 5.1 – 71.9 (its host core is
  shared, so the 20.8 µs transfer is time-sliced), then sleeps over
  71.9 – 84.1 while the device computes;
* ``cpu1`` charges its first kernel (98 µs) over 5.1 – 103.1;
* with a 30 % transient-fault plan, ``cpu1``'s first attempt fails at
  103.1 and backs off until 203.1.

The pins were taken on the generator-process backend, before the RMs
became state machines.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload
from tests.test_golden_timeline import RECORD_FIELDS

TRANSIENT = {"transient": {"prob": 0.3},
             "retry": {"max_retries": 2, "backoff_us": 100.0}}

#: state -> (PE, failure time in µs, the rest of the fault plan)
CASES: dict[str, tuple[str, float, dict]] = {
    "waiting-for-work": ("fft1", 20.0, {}),
    "mid-dma-in": ("fft0", 30.0, {}),
    "device-sleep": ("fft0", 78.0, {}),
    "mid-cpu-charge": ("cpu1", 50.0, {}),
    "retry-backoff": ("cpu1", 150.0, TRANSIENT),
}

#: state -> (stats digest, events_fired)
PINS: dict[str, tuple[str, int]] = {
    "waiting-for-work": (
        "62ee185d16bed7f8548c238dc6eccc683a3cb18190e3d7c62d54e7fd6c431a22", 206),
    "mid-dma-in": (
        "f4ecda59110531cb5f3298ead5574f5228f1e5a84b4616be1a0f6b01ee88d116", 209),
    "device-sleep": (
        "6d9627a6281da8cec9c800ae4a933d2cffcc3debb05334625c75ad251fd9e76d", 205),
    "mid-cpu-charge": (
        "8887be53527d0d7275f4a96d392e2edb38d39e20ed35c3ab3c2abb32cb40d4e0", 217),
    "retry-backoff": (
        "3e1dfb35d7e1558204e79d0ff8031dabd99f5fcaf377119c43337ad77bf155ca", 256),
}


def run_digest(state: str) -> tuple[str, int]:
    pe, at_us, plan = CASES[state]
    faults = {**plan, "pe_failures": [{"pe": pe, "at_us": at_us}]}
    backend = VirtualBackend()
    stats = Emulation(
        config="3C+2F", policy="frfs", jitter=False, seed=11,
        materialize_memory=False, faults=faults,
    ).run(
        validation_workload({"range_detection": 2, "wifi_tx": 2}), backend
    ).stats
    assert stats.pe_failures == 1
    info = backend.last_run_info
    doc = {
        "records": [
            [repr(getattr(rec, f)) for f in RECORD_FIELDS]
            for rec in stats.task_records
        ],
        "summary": stats.summary(),
        "engine": [info["events_scheduled"], repr(info["final_time_us"])],
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest(), info["events_fired"]


def test_every_state_has_a_pin():
    assert sorted(PINS) == sorted(CASES)


@pytest.mark.parametrize("state", sorted(CASES))
def test_fail_stop_matches_the_pin(state):
    assert run_digest(state) == PINS[state]


if __name__ == "__main__":  # regenerate: python -m tests.test_rm_fail_stop
    for state in CASES:
        print(f'    "{state}": {run_digest(state)!r},')
