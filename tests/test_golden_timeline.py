"""Full-timeline golden digests for the virtual backend.

The spine pins five aggregates per workload; this pins every timestamp.
Each small session below is run once and hashed: every ``TaskRecord``
field in record order (materialized runs), the summary dict, and the
engine's ``events_fired`` / ``events_scheduled`` / ``final_time_us``.  The
sessions are chosen to cross the per-task cycle's branches: plain and
rank-ordered policies, ``+edf``, self-serving reservation PEs, the 2C+2F
shared-core configuration whose round-robin preemption drives the
contended ``_Consume`` path, a slow (Odroid LITTLE) management core, a
permanent PE failure plus transient faults with retries, all three
admission policies, materialized and streaming, jitter on and off.

The constants were produced by running this file at the commit *before*
the per-task cycle was rewritten (``python tests/test_golden_timeline.py``
prints the table); a hot-path change that moves one event, one float or
one record fails here.  The test follows the selected core, so the
compiled job holds the C placement kernels (``eft_pass``, ``met_pass``) to
the same constants; the engine and the ready list are the same Python
under both.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dse.grid import build_workload
from repro.hardware.platform import platform_by_name
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation

RECORD_FIELDS = (
    "app_name", "instance_id", "task_name", "task_id", "pe_name", "pe_type",
    "ready_time", "dispatch_time", "start_time", "finish_time",
)

BURST = {"kind": "validation",
         "apps": {"range_detection": 6, "wifi_tx": 4, "pulse_doppler": 1}}
SMALL_BURST = {"kind": "validation",
               "apps": {"range_detection": 3, "wifi_tx": 3, "wifi_rx": 2}}
STEADY = {"kind": "rate", "rate": 4.57, "time_frame_us": 12_000.0}


def _arrivals(kind: str, **spec) -> dict:
    return {"kind": "arrivals", "spec": {"kind": kind, **spec}}


POISSON = _arrivals(
    "poisson", rate_per_ms=4.0, apps={"range_detection": 1.0},
    max_apps=120, seed=5001,
)
FLASH = _arrivals(
    "bursty", rate_per_ms=1.0,
    apps={"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0},
    bursts=[[10.0, 15.0, 10.0], [40.0, 10.0, 8.0]],
    duration_ms=60.0, seed=5002,
)

PE_FAILURE = {
    "pe_failures": [{"pe": "cpu1", "at_us": 900.0}],
    "transient": {"prob": 0.08, "accel_prob": 0.15},
    "retry": {"max_retries": 1, "backoff_us": 25.0, "max_requeues": 4},
}
TRANSIENT = {
    "transient": {"prob": 0.1, "accel_prob": 0.1},
    "retry": {"max_retries": 2, "backoff_us": 10.0, "max_requeues": 3},
    "slowdown": {"FFT": 1.5},
}


def _admission(policy: str, max_pending: int, deadline_us: float) -> dict:
    return {
        "deadlines": {"*": deadline_us},
        "admission": {"max_pending": max_pending, "policy": policy},
    }


#: name -> Emulation keyword arguments plus the workload descriptor
SESSIONS: dict[str, dict] = {
    "frfs-steady": dict(
        config="3C+2F", policy="frfs", jitter=False, workload=STEADY),
    "eft-burst-jitter": dict(
        config="3C+2F", policy="eft", jitter=True, workload=BURST),
    "heft-shared-core": dict(
        config="2C+2F", policy="heft", jitter=True, workload=BURST),
    "frfs-shared-core-steady": dict(
        config="2C+2F", policy="frfs", jitter=False, workload=STEADY),
    "frfs-reserve-shared-core": dict(
        config="2C+2F", policy="frfs_reserve", jitter=False, workload=BURST),
    "cprank-burst": dict(
        config="3C+2F", policy="cprank", jitter=True, workload=SMALL_BURST),
    "frfs-odroid-little-mgmt": dict(
        platform="odroid_xu3", config="1BIG+2LTL", policy="frfs",
        jitter=True, workload=SMALL_BURST),
    "frfs-pe-failure-retries": dict(
        config="3C+2F", policy="frfs", jitter=True, workload=BURST,
        faults=PE_FAILURE),
    "eft-transient-shared-core": dict(
        config="2C+2F", policy="eft", jitter=False, workload=BURST,
        faults=TRANSIENT),
    "frfs-reserve-pe-failure": dict(
        config="3C+2F", policy="frfs_reserve", jitter=True, workload=BURST,
        faults=PE_FAILURE),
    "frfs-edf-drop-oldest": dict(
        config="3C+2F", policy="frfs+edf", jitter=False, workload=STEADY,
        qos=_admission("drop-oldest", 3, 1500.0)),
    "frfs-defer": dict(
        config="2C+2F", policy="frfs", jitter=False, workload=STEADY,
        qos=_admission("defer", 2, 4000.0)),
    "met-stream-poisson": dict(
        config="3C+2F", policy="met", jitter=True, workload=POISSON),
    "eft-edf-stream-flashcrowd": dict(
        config="3C+2F", policy="eft+edf", jitter=True, workload=FLASH,
        qos=_admission("drop-newest", 6, 2000.0)),
    "frfs-stream-drop-oldest-pe-failure": dict(
        config="2C+2F", policy="frfs", jitter=True, workload=FLASH,
        qos=_admission("drop-oldest", 4, 2000.0), faults=PE_FAILURE),
}

GOLDEN: dict[str, str] = {
    "frfs-steady":
        "0eed35f3385d8fb866e2019f33b52a4dc8503e45f368decc4d8c274eef04bbf1",
    "eft-burst-jitter":
        "647e72aa81d0f5b48855379822b64d9b05fa0c607756d21794b0b40882aa6efa",
    "heft-shared-core":
        "bcdc8a8573e007eb2946c62c1f82ae1460642e134eb0290c25a8e9c8ef4364df",
    "frfs-shared-core-steady":
        "07cded4eb6c655fd94e3e857ff1a123ae0829f50d4bf42a492bf882b1b2c0573",
    "frfs-reserve-shared-core":
        "c9684055bd831024b9e82ea2b848c538847061ac913bec78aae74ab2d7c29228",
    "cprank-burst":
        "aafb3a6fd01813b2e5cccc963b1e6524b09dc1a5318ffe976255869c52cf0323",
    "frfs-odroid-little-mgmt":
        "3ff4c4e403c5515407b1af4a927c7cdc1bb65a28d7bdc31857c4e34c1fd79d95",
    "frfs-pe-failure-retries":
        "bc29166c72e60a578d657e0335e586a18886bf0a8c0bc9e6ce783b98df78b069",
    "eft-transient-shared-core":
        "d8bd18813b34fd510748c9e9b33ae225cc5ec9d8f54c7ee825e66ae7e03d699f",
    "frfs-reserve-pe-failure":
        "ea86b3034d48111b6e3484cca0e20aa2db59ea80be67bee6e9b5f255fa44cffa",
    "frfs-edf-drop-oldest":
        "13fe1f20291187ac10fe1dd903c89030b241bfb637ad314b5befa051f590ecd6",
    "frfs-defer":
        "4c13c16a6015d0950a21c8699dfb96d818a3670d1b38194fd05265b5da7ed75e",
    "met-stream-poisson":
        "73230fb167459fce2bf4727da5bfc3424a51141252c2f5af6d3c7ec3786fbcb8",
    "eft-edf-stream-flashcrowd":
        "f4df8942453afd45e477201588c0776cccda50c83a4b6d5a69602203a7928129",
    "frfs-stream-drop-oldest-pe-failure":
        "f6b3ce17972c6b0ee607ccc23c22d0eecf443889eff4f7c4ec9236277e626f06",
}


def timeline_digest(name: str) -> str:
    kwargs = dict(SESSIONS[name])
    workload = build_workload(kwargs.pop("workload"))
    if "platform" in kwargs:
        kwargs["platform"] = platform_by_name(kwargs["platform"])
    backend = VirtualBackend()
    stats = Emulation(seed=11, materialize_memory=False, **kwargs).run(
        workload, backend
    ).stats
    assert stats.task_count > 0
    info = backend.last_run_info
    doc = {
        "records": [
            [repr(getattr(rec, f)) for f in RECORD_FIELDS]
            for rec in stats.task_records
        ],
        "summary": stats.summary(),
        "engine": [
            info["events_fired"], info["events_scheduled"],
            repr(info["final_time_us"]),
        ],
    }
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def test_every_session_has_a_constant():
    assert sorted(GOLDEN) == sorted(SESSIONS)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_timeline_matches_the_golden_digest(name):
    assert timeline_digest(name) == GOLDEN[name]


if __name__ == "__main__":  # regenerate: python tests/test_golden_timeline.py
    for session in SESSIONS:
        print(f'    "{session}":\n        "{timeline_digest(session)}",')
