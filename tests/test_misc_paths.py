"""Tests for remaining paths: probabilistic injection through the stack,
engine introspection, and error surfaces."""

from __future__ import annotations

import pytest

from repro.common.errors import ApplicationSpecError, EmulationError
from repro.runtime.backends import ThreadedBackend, VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import performance_workload
from repro.sim import Engine


class TestProbabilisticInjection:
    def test_probability_thins_the_trace_end_to_end(self):
        wl = performance_workload(
            {"wifi_tx": 200.0},
            time_frame=20_000.0,
            probabilities={"wifi_tx": 0.5},
            seed=5,
        )
        assert 25 < wl.size < 75  # ~50 of 100 slots survive
        emu = Emulation(config="2C+0F", policy="frfs",
                        materialize_memory=False, jitter=False)
        result = emu.run(wl, VirtualBackend())
        assert result.stats.apps_completed == wl.size

    def test_zero_probability_everywhere_rejected(self):
        with pytest.raises(ApplicationSpecError, match="empty"):
            performance_workload(
                {"wifi_tx": 200.0},
                time_frame=1000.0,
                probabilities={"wifi_tx": 0.0},
                seed=1,
            )

    def test_invalid_time_frame_rejected(self):
        with pytest.raises(ApplicationSpecError):
            performance_workload({"a": 10.0}, time_frame=0.0)


class TestEngineIntrospection:
    def test_reentrant_run_rejected(self):
        engine = Engine()
        failures = []

        def nested():
            try:
                engine.run()
            except EmulationError as exc:
                failures.append(str(exc))
            yield engine.timeout(1.0)

        engine.process(nested())
        engine.run()
        assert any("re-entrant" in f for f in failures)


class TestThreadedTimeout:
    def test_wm_timeout_guard(self, monkeypatch):
        """A workload the config can never finish in time trips the guard."""
        from repro.runtime.backends import threaded
        from repro.runtime.workload import validation_workload

        emu = Emulation(config="1C+0F", policy="frfs")
        monkeypatch.setattr(threaded, "TIMEOUT_S", 0.02)
        with pytest.raises(EmulationError, match="exceeded"):
            emu.run(
                validation_workload({"pulse_doppler": 2}), ThreadedBackend()
            )
