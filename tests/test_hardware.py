"""Tests for PEs, platforms, configurations/affinity, DMA, accelerator,
and the performance models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import EmulationError, HardwareConfigError, MemoryError_
from repro.hardware.accelerator import (
    AcceleratorState,
    FFTAcceleratorDevice,
    FFTTimingModel,
)
from repro.hardware.config import AffinityPlan, parse_config
from repro.hardware.dma import DMAModel, DmaBuffer
from repro.hardware.pe import PE_BIG, PE_CPU, PE_FFT, PE_LITTLE, PEType, PEKind
from repro.hardware.perfmodel import (
    PerformanceModel,
    SchedulerCostModel,
)
from repro.hardware.platform import odroid_xu3, zcu102


class TestPETypes:
    def test_reference_types(self):
        assert PE_CPU.is_cpu and not PE_CPU.is_accelerator
        assert PE_FFT.is_accelerator
        assert PE_BIG.speed > PE_LITTLE.speed

    def test_invalid_speed_rejected(self):
        with pytest.raises(HardwareConfigError):
            PEType(name="x", kind=PEKind.CPU, speed=0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(HardwareConfigError):
            PEType(name="", kind=PEKind.CPU)


class TestPlatforms:
    def test_zcu102_layout(self):
        p = zcu102()
        assert len(p.host_cores) == 4
        assert p.management_core == 0
        assert p.pool_cores == (1, 2, 3)
        assert p.max_count("cpu") == 3 and p.max_count("fft") == 2
        assert p.management_core_speed == 1.0

    def test_odroid_layout(self):
        p = odroid_xu3()
        assert len(p.host_cores) == 8
        assert p.core(p.management_core).cluster == "little"
        assert p.pool_cores_for_cluster("big") == [0, 1, 2, 3]
        assert p.pool_cores_for_cluster("little") == [4, 5, 6]
        assert p.management_core_speed == pytest.approx(PE_LITTLE.speed)

    def test_zcu_accelerator_factory(self):
        dev = zcu102().make_accelerator("fft_test")
        assert isinstance(dev, FFTAcceleratorDevice)

    def test_odroid_has_no_accelerators(self):
        with pytest.raises(HardwareConfigError):
            odroid_xu3().make_accelerator("x")

    def test_unknown_core_rejected(self):
        with pytest.raises(HardwareConfigError):
            zcu102().core(9)

    def test_unknown_pe_type_rejected(self):
        with pytest.raises(HardwareConfigError, match="unknown PE type"):
            zcu102().pe_type("gpu")


class TestConfigParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3C+2F", (("cpu", 3), ("fft", 2))),
            ("1c+0f", (("cpu", 1), ("fft", 0))),
            ("2BIG+3LTL", (("big", 2), ("little", 3))),
            ("4big+1ltl", (("big", 4), ("little", 1))),
            ("cpu:3,fft:2", (("cpu", 3), ("fft", 2))),
        ],
    )
    def test_accepts_paper_notation(self, text, expected):
        assert parse_config(text).counts == expected

    @pytest.mark.parametrize("text", ["", "3X2F", "C3", "+", "cpu:x"])
    def test_rejects_malformed(self, text):
        with pytest.raises(HardwareConfigError):
            parse_config(text)

    def test_zero_total_rejected(self):
        with pytest.raises(HardwareConfigError):
            parse_config("0C+0F")

    def test_duplicate_type_rejected(self):
        with pytest.raises(HardwareConfigError, match="duplicate"):
            parse_config("1C+2C")

    def test_helpers(self):
        cfg = parse_config("3C+2F")
        assert cfg.total_pes == 5
        assert cfg.count("cpu") == 3 and cfg.count("ghost") == 0
        assert str(cfg) == "3C+2F"


class TestAffinityPlacement:
    """The paper's Sec. II-D thread-placement rules."""

    def placement(self, platform, config):
        plan = AffinityPlan.build(platform, config)
        return {pe.name: pe.host_core for pe in plan.pes}

    def test_cpu_pes_get_dedicated_pool_cores(self, zcu):
        assert self.placement(zcu, "3C+0F") == {
            "cpu0": 1, "cpu1": 2, "cpu2": 3
        }

    def test_accel_rms_take_unused_cores_first(self, zcu):
        assert self.placement(zcu, "1C+2F") == {
            "cpu0": 1, "fft0": 2, "fft1": 3
        }

    def test_2c2f_shares_the_leftover_core(self, zcu):
        # the paper's anomaly: both FFT manager threads on one A53
        placement = self.placement(zcu, "2C+2F")
        assert placement["fft0"] == placement["fft1"] == 3
        plan = AffinityPlan.build(zcu, "2C+2F")
        shared = plan.shared_cores()
        assert list(shared) == [3]
        assert len(shared[3]) == 2

    def test_3c2f_distributes_over_pool_cores(self, zcu):
        placement = self.placement(zcu, "3C+2F")
        assert placement["fft0"] == 1 and placement["fft1"] == 2

    def test_management_core_never_used(self, zcu):
        for cfg in ("1C+0F", "3C+2F", "2C+2F"):
            assert 0 not in AffinityPlan.build(zcu, cfg).cores_in_use()

    def test_odroid_clusters_respected(self, odroid):
        placement = self.placement(odroid, "2BIG+3LTL")
        assert placement["big0"] in (0, 1, 2, 3)
        assert placement["little0"] in (4, 5, 6)
        # management LITTLE core (7) is never allocated
        assert 7 not in placement.values()

    def test_over_request_rejected(self, zcu, odroid):
        with pytest.raises(HardwareConfigError, match="provides"):
            AffinityPlan.build(zcu, "4C+0F")
        with pytest.raises(HardwareConfigError, match="provides"):
            AffinityPlan.build(zcu, "1C+3F")
        with pytest.raises(HardwareConfigError, match="provides"):
            AffinityPlan.build(odroid, "5BIG+0LTL")

    def test_pe_ids_dense_and_ordered(self, zcu):
        plan = AffinityPlan.build(zcu, "2C+2F")
        assert [pe.pe_id for pe in plan.pes] == [0, 1, 2, 3]

    def test_supported_platform_names(self, zcu):
        plan = AffinityPlan.build(zcu, "1C+1F")
        assert plan.supported_platform_names() == {"cpu", "fft"}


class TestDma:
    def test_transfer_time_model(self):
        dma = DMAModel(setup_latency_us=10.0, bandwidth_bytes_per_us=100.0)
        assert dma.transfer_time(1000) == pytest.approx(20.0)
        assert dma.round_trip_time(500, 500) == pytest.approx(30.0)

    def test_invalid_parameters(self):
        with pytest.raises(HardwareConfigError):
            DMAModel(setup_latency_us=-1.0, bandwidth_bytes_per_us=1.0)
        with pytest.raises(HardwareConfigError):
            DMAModel(setup_latency_us=0.0, bandwidth_bytes_per_us=0.0)

    def test_negative_size_rejected(self):
        dma = DMAModel(1.0, 1.0)
        with pytest.raises(MemoryError_):
            dma.transfer_time(-1)

    def test_buffer_roundtrip(self):
        buf = DmaBuffer(1024)
        data = np.arange(16, dtype=np.complex64)
        buf.write(data)
        out = buf.read(data.nbytes, np.complex64)
        assert np.array_equal(out, data)
        assert buf.transfer_count == 2

    def test_buffer_capacity_enforced(self):
        buf = DmaBuffer(16)
        with pytest.raises(MemoryError_):
            buf.write(np.zeros(100, dtype=np.float64))
        with pytest.raises(MemoryError_):
            buf.read(64)

    def test_buffer_storage_allocated_by_first_transfer(self):
        # A device built for its timing model only never stages a byte and
        # so holds no staging memory; an unwritten buffer still reads zeros.
        buf = DmaBuffer(1024)
        assert "_storage" not in vars(buf)
        assert not buf.read(8).any()
        buf.view(4)[:] = 7
        assert buf.read(8).tolist() == [7, 7, 7, 7, 0, 0, 0, 0]


class TestAccelerator:
    def test_full_protocol_computes_fft(self):
        dev = FFTAcceleratorDevice("fft0")
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).astype(
            np.complex64
        )
        dev.load(x)
        dev.start()
        assert dev.state is AcceleratorState.BUSY
        dev.step()
        assert dev.poll()
        result = dev.read_result()
        assert np.allclose(result, np.fft.fft(x), rtol=1e-4, atol=1e-3)
        assert dev.state is AcceleratorState.IDLE
        assert dev.jobs_completed == 1

    def test_inverse_transform(self):
        dev = FFTAcceleratorDevice("fft0")
        x = np.fft.fft(np.arange(16)).astype(np.complex64)
        dev.load(x, inverse=True)
        dev.start()
        dev.step()
        assert np.allclose(dev.read_result(), np.arange(16), atol=1e-3)

    def test_protocol_violations_raise(self):
        dev = FFTAcceleratorDevice("fft0")
        with pytest.raises(EmulationError):
            dev.start()  # nothing loaded
        dev.load(np.ones(8, dtype=np.complex64))
        dev.start()
        with pytest.raises(EmulationError):
            dev.load(np.ones(8, dtype=np.complex64))  # busy
        with pytest.raises(EmulationError):
            dev.read_result()  # not done yet

    def test_max_points_enforced(self):
        dev = FFTAcceleratorDevice("fft0", max_points=64)
        with pytest.raises(MemoryError_):
            dev.load(np.zeros(65, dtype=np.complex64))

    def test_timing_model_scales_nlogn(self):
        t = FFTTimingModel(setup_us=0.0, per_point_stage_us=1.0)
        assert t.compute_time(8) == pytest.approx(8 * 3)
        assert t.compute_time(1024) == pytest.approx(1024 * 10)

    def test_job_time_includes_dma_roundtrip(self):
        dev = FFTAcceleratorDevice("fft0")
        points = 128
        expected = (
            dev.dma.round_trip_time(points * 8, points * 8)
            + dev.compute_time(points)
        )
        assert dev.job_time(points) == pytest.approx(expected)


class TestPerformanceModel:
    def test_reference_table_covers_all_app_kernels(self):
        from repro.apps import default_applications

        model = PerformanceModel()
        for graph in default_applications().values():
            for node in graph.nodes.values():
                for binding in node.platforms:
                    assert model.has_kernel(binding.runfunc), binding.runfunc

    def test_speed_scaling(self):
        model = PerformanceModel()
        base = model.cpu_time("wifi_viterbi_decode", PE_CPU)
        big = model.cpu_time("wifi_viterbi_decode", PE_BIG)
        little = model.cpu_time("wifi_viterbi_decode", PE_LITTLE)
        assert big < base < little

    def test_unknown_kernel_uses_default(self):
        model = PerformanceModel(default_cpu_time=33.0)
        assert model.cpu_time("mystery", PE_CPU) == 33.0

    def test_128pt_fft_faster_on_cpu_than_accelerator(self):
        """The paper's Fig. 9 finding that motivates the 1C+1F behaviour."""
        model = PerformanceModel()
        dev = FFTAcceleratorDevice("fft0")
        cpu = model.cpu_time("pd_pulse_FFT_CPU", PE_CPU)
        accel = model.service_time("pd_pulse_FFT_ACCEL", PE_FFT, dev)
        assert cpu < accel

    def test_256pt_fft_faster_on_accelerator(self):
        model = PerformanceModel()
        dev = FFTAcceleratorDevice("fft0")
        cpu = model.cpu_time("range_detect_FFT_0_CPU", PE_CPU)
        accel = model.service_time("range_detect_FFT_0_ACCEL", PE_FFT, dev)
        assert accel < cpu

    def test_accel_without_device_rejected(self):
        with pytest.raises(HardwareConfigError):
            PerformanceModel().service_time("range_detect_FFT_0_ACCEL", PE_FFT)

    def test_unregistered_accel_job_rejected(self):
        model = PerformanceModel()
        with pytest.raises(HardwareConfigError, match="job size"):
            model.accel_points("mystery_accel")

    def test_registration(self):
        model = PerformanceModel()
        model.set_time("custom", 12.0)
        model.set_accel_job("custom_accel", 64)
        assert model.cpu_time("custom", PE_CPU) == 12.0
        assert model.accel_points("custom_accel") == 64
        with pytest.raises(HardwareConfigError):
            model.set_time("bad", 0.0)
        with pytest.raises(HardwareConfigError):
            model.set_accel_job("bad", 0)

    def test_jitter_statistics(self):
        model = PerformanceModel(jitter_sigma=0.05)
        rng = np.random.default_rng(12)
        samples = np.array([model.jitter(rng) for _ in range(4000)])
        assert samples.mean() == pytest.approx(1.0, abs=0.02)
        assert 0.01 < samples.std() < 0.12
        quiet = PerformanceModel(jitter_sigma=0.0)
        assert quiet.jitter(rng) == 1.0


class TestSchedulerCostModel:
    def test_frfs_cost_independent_of_ready_length(self):
        model = SchedulerCostModel()
        assert model.policy_cost("frfs", 10, 5) == model.policy_cost("frfs", 1000, 5)

    def test_frfs_cost_scales_with_pe_count(self):
        model = SchedulerCostModel()
        assert model.policy_cost("frfs", 1, 7) > model.policy_cost("frfs", 1, 5)

    def test_met_is_linear_eft_quadratic(self):
        model = SchedulerCostModel()
        met_ratio = model.policy_cost("met", 200, 5) / model.policy_cost("met", 100, 5)
        eft_ratio = model.policy_cost("eft", 200, 5) / model.policy_cost("eft", 100, 5)
        assert met_ratio == pytest.approx(2.0, rel=0.1)
        assert eft_ratio == pytest.approx(4.0, rel=0.1)

    def test_paper_frfs_magnitude_at_5_pes(self):
        # Fig 10b reports ~1.9-2.7us for FRFS on 3C+2F
        model = SchedulerCostModel()
        cost = model.invocation_cost("frfs", 10, 5, completions=1, dispatched=1)
        assert 1.0 < cost < 5.0

    def test_invocation_cost_components(self):
        model = SchedulerCostModel()
        base = model.invocation_cost("frfs", 0, 5, 0, 0)
        more = model.invocation_cost("frfs", 0, 5, completions=4, dispatched=2)
        expected = (
            base
            + 4 * model.monitor_cost_per_completion
            + 2 * model.dispatch_cost_per_task
        )
        assert more == pytest.approx(expected)

    def test_pass_cost_models_per_completion_invocations(self):
        """The paper: the policy runs on *every* task completion, so a
        pass that observed k completions stands for k invocations."""
        model = SchedulerCostModel()
        one, inv_one = model.pass_cost("frfs", 10, 5, completions=1,
                                       dispatched=1)
        four, inv_four = model.pass_cost("frfs", 10, 5, completions=4,
                                         dispatched=1)
        assert inv_one == 1 and inv_four == 4
        per_invocation = model.base_cost + model.policy_cost("frfs", 10, 5)
        assert four - one == pytest.approx(
            3 * per_invocation + 3 * model.monitor_cost_per_completion
        )

    def test_pass_cost_injection_only_counts_one_invocation(self):
        model = SchedulerCostModel()
        total, invocations = model.pass_cost("frfs", 5, 5, completions=0,
                                             dispatched=2)
        assert invocations == 1
        assert total > 0

    def test_unknown_policy_uses_default_coeffs(self):
        model = SchedulerCostModel()
        assert model.policy_cost("mystery", 10, 5) > 0

    def test_set_policy_overrides(self):
        model = SchedulerCostModel()
        model.set_policy("custom", 1.0, 2.0, 1)
        assert model.policy_cost("custom", 3, 2) == pytest.approx(1.0 + 2.0 * 3 * 2)

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_costs_always_positive_property(self, ready, pes):
        model = SchedulerCostModel()
        for policy in ("frfs", "met", "eft", "random", "heft"):
            assert model.policy_cost(policy, ready, pes) >= 0.0
