"""Tests for the SDR application suite: graphs, JSON fidelity, and full
functional execution on the threaded backend (incl. accelerators)."""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.appmodel.dag import TaskGraph
from repro.appmodel.jsonspec import graph_from_json, graph_to_json
from repro.apps import (
    build_application,
    default_applications,
    default_kernel_library,
    pulse_doppler,
    range_detection,
    wifi_rx,
    wifi_tx,
)
from repro.apps import registry
from repro.apps import wifi_common as wc
from repro.apps.registry import verify_instance
from repro.common.errors import ApplicationSpecError
from repro.dse.grid import SweepCell, validation_sweep
from repro.dse.runner import execute_cell
from repro.runtime.backends import ThreadedBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload


class TestGraphStructure:
    """Task counts must match the paper's Table I exactly."""

    @pytest.mark.parametrize(
        "app,count",
        [
            ("range_detection", 6),
            ("pulse_doppler", 770),
            ("wifi_tx", 7),
            ("wifi_rx", 9),
        ],
    )
    def test_table_i_task_counts(self, app, count):
        assert build_application(app).task_count == count

    def test_unknown_application_reported(self):
        with pytest.raises(ApplicationSpecError, match="not detected"):
            build_application("sonar")

    def test_range_detection_matches_listing1_shape(self):
        g = build_application("range_detection")
        assert set(g.head_nodes()) == {"LFM", "FFT_0"}
        assert g.nodes["MUL"].predecessors == ("FFT_0", "FFT_1")
        assert g.tail_nodes() == ("MAX",)
        fft0 = g.nodes["FFT_0"]
        accel = fft0.binding_for("fft")
        assert accel.shared_object == "fft_accel.so"

    def test_wifi_chains_are_linear(self):
        for app in ("wifi_tx", "wifi_rx"):
            g = build_application(app)
            assert len(g.head_nodes()) == 1
            assert len(g.tail_nodes()) == 1
            assert g.critical_path_length() == g.task_count

    def test_pulse_doppler_default_geometry(self):
        geo = pulse_doppler.DEFAULT_GEOMETRY
        assert geo.task_count == 770
        assert 5 * geo.n_pulses + 2 * geo.n_gates + 2 == 770

    @pytest.mark.parametrize("m,n,g,off", [(4, 16, 2, 7), (8, 32, 4, 14)])
    def test_pulse_doppler_scales(self, m, n, g, off):
        geo = pulse_doppler.PulseDopplerGeometry(m, n, g, off)
        graph = pulse_doppler.build_graph(geo)
        assert graph.task_count == geo.task_count

    def test_pulse_doppler_geometry_validation(self):
        with pytest.raises(ValueError):
            pulse_doppler.PulseDopplerGeometry(0, 8, 2, 0)
        with pytest.raises(ValueError):
            pulse_doppler.PulseDopplerGeometry(4, 8, 8, 4)

    def test_all_apps_serialize_to_listing1_json(self):
        for name, graph in default_applications().items():
            data = graph_to_json(graph)
            again = graph_from_json(data)
            assert again.task_count == graph.task_count, name
            assert graph_to_json(again) == data

    def test_kernel_library_resolves_every_runfunc(self):
        lib = default_kernel_library()
        for graph in default_applications().values():
            for node in graph.nodes.values():
                for binding in node.platforms:
                    so = binding.shared_object or graph.shared_object
                    assert lib.resolve(so, binding.runfunc) is not None

    def test_fft_nodes_carry_accelerator_bindings(self):
        g = build_application("pulse_doppler")
        assert g.nodes["P000_FFT"].supports("fft")
        assert g.nodes["G000_DFFT"].supports("fft")
        assert not g.nodes["P000_CONJ"].supports("fft")

    def test_range_detection_cpu_only_variant(self):
        g = range_detection.build_graph(accelerator_platform="")
        assert g.platform_types() == {"cpu"}


@pytest.fixture
def cold_registry(monkeypatch):
    """An unparsed application repository, with every TaskGraph
    construction counted by app name."""
    built: Counter[str] = Counter()
    real_init = TaskGraph.__init__

    def counting_init(self, app_name, *args, **kwargs):
        built[app_name] += 1
        real_init(self, app_name, *args, **kwargs)

    monkeypatch.setattr(registry, "_archetypes", {})
    monkeypatch.setattr(TaskGraph, "__init__", counting_init)
    return built


class TestSharedArchetypes:
    """Built-in archetypes are parsed once per process and are read-only."""

    def test_emulations_and_cells_parse_each_archetype_once(self, cold_registry):
        cell = SweepCell(
            config="2C+1F", policy="frfs",
            workload=validation_sweep({"range_detection": 1, "wifi_tx": 1}),
        ).to_dict()
        for _ in range(3):
            Emulation(config="2C+1F")
            execute_cell(cell)
        assert cold_registry == dict.fromkeys(registry.APPLICATION_BUILDERS, 1)

    def test_concurrent_first_requests_build_once(self, cold_registry):
        start = threading.Barrier(8)
        seen = []

        def ask():
            start.wait(timeout=30)
            seen.append(build_application("pulse_doppler"))

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 and all(g is seen[0] for g in seen)
        assert cold_registry == {"pulse_doppler": 1}

    def test_shared_graphs_reject_mutation(self):
        graph = default_applications()["range_detection"]
        node = graph.nodes["MUL"]
        with pytest.raises(TypeError):
            graph.nodes["MUL"] = node
        with pytest.raises(AttributeError):
            graph.variables.pop("index")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.platforms = ()
        with pytest.raises(TypeError):
            graph.binding_refs[("MUL", "cpu")] = ("x.so", "f")

    def test_returned_dict_is_the_callers_own(self):
        apps = default_applications()
        del apps["wifi_rx"]
        apps["range_detection"] = None
        again = default_applications()
        assert sorted(again) == sorted(registry.APPLICATION_BUILDERS)
        assert again["range_detection"] is build_application("range_detection")

    def test_kernel_library_stays_fresh_and_mutable(self):
        lib = default_kernel_library()
        lib.register_shared_object("mine.so", {"f": lambda ctx: None})
        assert lib.resolve("mine.so", "f") is not None
        assert "mine.so" not in default_kernel_library().shared_objects()


def run_threaded(app_name, graph=None, config="2C+1F", count=1):
    apps = {app_name: graph} if graph is not None else None
    emu = Emulation(config=config, policy="frfs", applications=apps)
    return emu.run(
        validation_workload({app_name: count}), ThreadedBackend()
    )


class TestFunctionalExecution:
    """Validation mode = functional verification with real kernels."""

    def test_range_detection_detects_true_delay(self):
        result = run_threaded("range_detection")
        instance = result.instances[0]
        assert instance.variables["index"].as_int() == range_detection.TRUE_DELAY
        assert verify_instance(instance)

    def test_wifi_tx_frame_decodable(self):
        result = run_threaded("wifi_tx")
        assert result.verify_outputs() == {"wifi_tx": True}

    def test_wifi_rx_recovers_payload_through_noise(self):
        result = run_threaded("wifi_rx")
        instance = result.instances[0]
        assert instance.variables["crc_ok"].as_int() == 1
        decoded = instance.variables["payload_out"].as_array(np.uint8)
        truth = instance.variables["true_payload"].as_array(np.uint8)
        assert np.array_equal(decoded, truth)

    def test_pulse_doppler_small_geometry_finds_target(self):
        geo = pulse_doppler.PulseDopplerGeometry(
            n_pulses=8, n_samples=32, n_gates=4, gate_offset=14
        )
        graph = pulse_doppler.build_graph(geo)
        result = run_threaded("pulse_doppler", graph=graph)
        instance = result.instances[0]
        gate, bin_ = pulse_doppler.expected_peak(geo)
        assert instance.variables["range_gate"].as_int() == gate
        assert instance.variables["doppler_bin"].as_int() == bin_

    def test_range_detection_on_accelerator_config(self):
        # 1C+2F forces FFT work onto the device under FRFS pressure
        result = run_threaded("range_detection", config="1C+2F", count=2)
        assert result.verify_outputs() == {"range_detection": True}
        accel_tasks = [
            r for r in result.stats.task_records if r.pe_type == "fft"
        ]
        assert accel_tasks, "expected at least one task on the FFT device"

    def test_mixed_workload_all_correct(self):
        emu = Emulation(config="3C+2F", policy="frfs")
        result = emu.run(
            validation_workload(
                {"range_detection": 1, "wifi_tx": 1, "wifi_rx": 1}
            ),
            ThreadedBackend(),
        )
        checks = result.verify_outputs()
        assert checks == {
            "range_detection": True, "wifi_tx": True, "wifi_rx": True
        }


class TestWifiFrameFormat:
    def test_constants_consistent(self):
        assert wc.N_CODED_BITS == 140
        assert wc.N_PADDED_BITS == 192
        assert wc.PAYLOAD_SAMPLES == 128
        assert wc.FRAME_SAMPLES == 160

    def test_reference_chain_roundtrip(self):
        payload = wifi_tx.reference_payload()
        frame, frame_crc = wc.transmit(payload)
        assert frame.shape == (wc.FRAME_SAMPLES,)
        decoded = wc.receive(frame[wc.PREAMBLE_LEN:])
        assert np.array_equal(decoded, payload)

    def test_roundtrip_with_awgn(self):
        from repro.apps.kernels import channel

        payload = wifi_tx.reference_payload(seed=9)
        frame, _crc = wc.transmit(payload)
        noisy = channel.awgn(frame, 18.0, np.random.default_rng(3))
        decoded = wc.receive(noisy[wc.PREAMBLE_LEN:])
        assert np.array_equal(decoded, payload)

    def test_interleave_frame_roundtrip(self):
        bits = np.arange(wc.N_PADDED_BITS, dtype=np.uint8) % 2
        assert np.array_equal(
            wc.deinterleave_frame(wc.interleave_frame(bits)), bits
        )

    def test_pad_rejects_overflow(self):
        with pytest.raises(ValueError):
            wc.pad_coded_bits(np.zeros(wc.N_PADDED_BITS + 1, dtype=np.uint8))
