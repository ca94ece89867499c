"""Fixtures for the spine's own tests: tiny sizes, injected here only."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[3] / "src"
if str(_SRC) not in sys.path:  # lets `python -m pytest benchmarks/spine/tests` run bare
    sys.path.insert(0, str(_SRC))

from benchmarks.spine import hostspeed, measure, probes, workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload and probe so a full run takes well under a second."""
    for name, value in {
        "BURST_APPS": {"range_detection": 2, "wifi_tx": 1},
        "STEADY_FRAME_MS": 5.0,
        "POISSON_APPS": 20,
        "FLASH_DURATION_MS": 60.0,
        "FLASH_BURSTS": ((20.0, 20.0, 8.0),),
        "GRID_CONFIGS": ("2C+1F", "3C+2F"),
        "GRID_POLICIES": ("frfs", "eft"),
        "GRID_SEEDS": 1,
        "WARM_PASSES": 2,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(hostspeed, "BLOCK", 1)
    monkeypatch.setattr(measure, "MIN_REPS", 2)
    monkeypatch.setattr(measure, "MIN_SETUPS", 3)
    for name, value in {
        "REPS": 2, "ENGINE_OPS": 20, "CONSUME_OPS": 10, "MAILBOX_OPS": 20,
        "READYLIST_TASKS": 32, "READY_LEN": 16,
        "SCHED_PASSES": dict.fromkeys(probes.SCHED_PASSES, 1),
        "BUILD_CALLS": 1, "INSTANTIATE_APPS": 10, "ARRIVAL_APPS": 50,
        "P2_ADDS": 50, "GRID_CELLS": 36, "JOURNAL_EVENTS": 10,
        "CACHE_ENTRIES": 5, "LEASE_CYCLES": 5, "QUEUE_CELLS": 4, "FRAMES": 10,
    }.items():
        monkeypatch.setattr(probes, name, value)
