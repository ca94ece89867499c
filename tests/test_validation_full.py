"""Full-suite functional verification — the paper's validation-mode use:
"functionally verify the integration of an application task-graph,
scheduling algorithm, and accelerator in the emulation framework."."""

from __future__ import annotations

import pytest

from repro.common.log import get_logger
from repro.hardware.config import parse_config
from repro.runtime.backends import ThreadedBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload


class TestFullValidationMode:
    def test_fig9_workload_functionally_correct(self):
        """All four applications (incl. the 770-task pulse Doppler) execute
        with real kernels on 3C+2F and every output verifies."""
        emu = Emulation(config="3C+2F", policy="frfs")
        result = emu.run(
            validation_workload(
                {"pulse_doppler": 1, "range_detection": 1,
                 "wifi_tx": 1, "wifi_rx": 1}
            ),
            ThreadedBackend(),
        )
        assert result.stats.task_count == 770 + 6 + 7 + 9
        assert result.verify_outputs() == {
            "pulse_doppler": True, "range_detection": True,
            "wifi_tx": True, "wifi_rx": True,
        }

    @pytest.mark.parametrize("policy", ["met", "eft", "random", "heft",
                                        "frfs_reserve"])
    def test_every_policy_preserves_functional_correctness(self, policy):
        """Scheduling decisions must never change application outputs."""
        emu = Emulation(config="2C+1F", policy=policy)
        result = emu.run(
            validation_workload({"range_detection": 2, "wifi_tx": 1}),
            ThreadedBackend(),
        )
        assert result.verify_outputs() == {"range_detection": True,
                                           "wifi_tx": True}

    def test_single_core_configuration_correct(self):
        emu = Emulation(config="1C+0F", policy="frfs")
        result = emu.run(
            validation_workload({"range_detection": 1, "wifi_rx": 1}),
            ThreadedBackend(),
        )
        assert result.verify_outputs() == {"range_detection": True,
                                           "wifi_rx": True}

    def test_accelerator_heavy_configuration_correct(self):
        """1C+2F pushes FFT work onto the functional devices."""
        emu = Emulation(config="1C+2F", policy="frfs")
        result = emu.run(
            validation_workload({"range_detection": 3}), ThreadedBackend()
        )
        assert result.verify_outputs() == {"range_detection": True}
        assert any(r.pe_type == "fft" for r in result.stats.task_records)


class TestEmulationConfigForms:
    def test_accepts_config_object(self):
        emu = Emulation(config=parse_config("2C+0F"), policy="frfs",
                        materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"wifi_tx": 1}))
        assert result.config_label == "2C+0F"

    def test_explicit_config_syntax(self):
        emu = Emulation(config="cpu:2,fft:1", policy="frfs",
                        materialize_memory=False, jitter=False)
        result = emu.run(validation_workload({"wifi_tx": 1}))
        assert result.stats.apps_completed == 1


class TestLogging:
    def test_logger_namespaced(self):
        log = get_logger("runtime.test_component")
        assert log.name == "repro.runtime.test_component"
        already = get_logger("repro.sim")
        assert already.name == "repro.sim"
