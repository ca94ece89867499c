"""Compiled-core tests: selection semantics + pure/compiled equivalence.

The compiled kernels (``repro._native._coreext``) are bit-identical to
the pure-Python placement loops by contract; these tests are that
contract's enforcement.  Everything under ``needs_ext`` skips cleanly when
the extension has not been built (``python -m repro._native.build``).
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import pytest

from repro import _native
from repro import core as core_select
from repro.common.errors import ReproError
from repro.hardware.platform import zcu102
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.faults import FaultSpec, PEFailure
from repro.runtime.qos import QoSController, QoSSpec
from repro.runtime.workload import validation_workload
from repro.experiments.workloads import table_ii_workload

HAVE_EXT = _native.available()
needs_ext = pytest.mark.skipif(
    not HAVE_EXT, reason="compiled core extension not built"
)

ALL_POLICIES = (
    "frfs", "met", "eft", "heft", "random", "met_power",
    "frfs_reserve", "eft_reserve", "cprank", "rollout",
)


# -- selection semantics ---------------------------------------------------------


class TestSelection:
    def test_unknown_choice_rejected(self):
        with pytest.raises(ReproError, match="unknown core"):
            with core_select.forced("turbo"):
                pass

    def test_explicit_compiled_without_extension_errors(self, monkeypatch):
        monkeypatch.setattr(_native, "available", lambda: False)
        with pytest.raises(ReproError, match="not importable") as info:
            with core_select.forced("compiled"):
                pass
        assert "python -m repro._native.build" in str(info.value)

    @pytest.mark.parametrize("value", ["pure", "compiled", "hyperspeed"])
    def test_dssoc_core_is_not_read(self, monkeypatch, value):
        monkeypatch.setenv("DSSOC_CORE", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core_select.selected_core() == (
                "compiled" if HAVE_EXT else "pure"
            )

    def test_auto_matches_availability(self):
        expected = (
            core_select.CORE_COMPILED if _native.available()
            else core_select.CORE_PURE
        )
        assert core_select.selected_core() == expected

    def test_forced_pins_and_restores_when_nested(self):
        with core_select.forced(core_select.CORE_PURE):
            if HAVE_EXT:
                with core_select.forced(core_select.CORE_COMPILED):
                    assert core_select.selected_core() == "compiled"
            assert core_select.selected_core() == "pure"
            assert core_select.native_kernels() is None
        assert core_select.selected_core() == (
            "compiled" if HAVE_EXT else "pure"
        )

    def test_forced_context_restores(self):
        before = core_select.selected_core()
        with pytest.raises(RuntimeError):
            with core_select.forced(core_select.CORE_PURE):
                assert core_select.selected_core() == core_select.CORE_PURE
                raise RuntimeError("leave the block by an exception")
        assert core_select.selected_core() == before

    @pytest.mark.parametrize(
        "command", ["run", "perf", "sweep", "sweep-worker", "bench"]
    )
    def test_core_flag_is_a_usage_error(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--core", "pure"])
        assert exit_info.value.code == 2
        assert "--core" in capsys.readouterr().err

    def test_core_info_pure(self):
        with core_select.forced(core_select.CORE_PURE):
            info = core_select.core_info()
        assert info == {"variant": "pure"}

    @needs_ext
    def test_core_info_compiled_carries_build_metadata(self):
        with core_select.forced(core_select.CORE_COMPILED):
            info = core_select.core_info()
        assert info["variant"] == "compiled"
        assert info["build"]["toolchain"]
        assert info["build"]["python"]
        assert info["build"]["api"] == _native.API

    def test_there_is_one_engine_whatever_the_core(self):
        from repro.sim.engine import Engine

        with core_select.forced(core_select.CORE_PURE):
            assert type(core_select.make_engine()) is Engine
        if HAVE_EXT:
            with core_select.forced(core_select.CORE_COMPILED):
                assert type(core_select.make_engine()) is Engine


# -- an extension built for other kernels ------------------------------------------


class TestStaleExtension:
    """An in-place ``.so`` from an older checkout imports fine and would
    fail with a ``TypeError`` on its first pass; it must read as missing."""

    @pytest.fixture
    def stale(self, monkeypatch):
        fake = SimpleNamespace(BUILD_INFO={"toolchain": "gcc", "api": 1})
        monkeypatch.setattr(_native, "_coreext", fake, raising=False)
        _native.reset_for_tests()
        yield fake
        _native.reset_for_tests()

    def test_it_is_not_importable_and_says_why(self, stale):
        assert _native.load() is None
        assert not _native.available()
        assert _native.build_info() is None
        message = _native.import_error()
        assert f"built for api 1, this checkout needs {_native.API}" in message
        assert "python -m repro._native.build" in message

    def test_auto_falls_back_to_pure_silently(self, stale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert core_select.selected_core() == core_select.CORE_PURE
            assert core_select.native_kernels() is None

    def test_explicit_compiled_is_the_named_error(self, stale):
        with pytest.raises(ReproError, match="built for api 1") as info:
            with core_select.forced("compiled"):
                pass
        assert "python -m repro._native.build" in str(info.value)


# -- whole-emulation equivalence -------------------------------------------------


def _run_emulation(core: str, policy: str, *, seed: int = 11,
                   faults: FaultSpec | None = None,
                   qos: QoSSpec | None = None,
                   workload=None, jitter: bool = True):
    """One full virtual-backend emulation under a forced core variant."""
    from repro.analysis.trace_export import records_as_dicts

    with core_select.forced(core):
        emu = Emulation(
            platform=zcu102(),
            config="3C+2F",
            policy=policy,
            jitter=jitter,
            seed=seed,
            faults=faults,
            qos=QoSController(qos) if qos is not None else None,
        )
        if workload is None:
            workload = validation_workload(
                {"range_detection": 2, "wifi_tx": 2, "pulse_doppler": 1}
            )
        result = emu.run(workload, VirtualBackend())
    stats = result.stats
    return {
        "summary": stats.summary(),
        "records": records_as_dicts(stats),
        "sched_invocations": stats.sched_invocations,
    }


@needs_ext
class TestCrossCoreEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_policy_bit_identical(self, policy):
        pure = _run_emulation("pure", policy)
        compiled = _run_emulation("compiled", policy)
        assert pure == compiled

    @pytest.mark.parametrize("policy", ["frfs", "eft", "random"])
    def test_seed_sweep_bit_identical(self, policy):
        for seed in (0, 7, 123):
            assert _run_emulation("pure", policy, seed=seed) == \
                _run_emulation("compiled", policy, seed=seed)

    def test_fault_injection_bit_identical(self):
        spec = FaultSpec(
            pe_failures=(PEFailure("fft", 50.0),),
            transient_prob=0.05,
            max_retries=2,
            backoff_us=5.0,
            max_requeues=1,
        )
        for policy in ("frfs", "eft_reserve"):
            assert _run_emulation("pure", policy, faults=spec) == \
                _run_emulation("compiled", policy, faults=spec)

    def test_qos_and_edf_bit_identical(self):
        spec = QoSSpec(
            deadlines=(("*", 2000.0), ("wifi_tx", 800.0)),
            virtual_budget_us=5e5,
        )
        for policy in ("frfs", "frfs+edf", "eft+edf"):
            assert _run_emulation("pure", policy, qos=spec) == \
                _run_emulation("compiled", policy, qos=spec)

    def test_random_on_a_burst_bit_identical(self):
        # burst-eft's shape (benchmarks/spine): every app arrives at t=0
        burst = validation_workload(
            {"range_detection": 8, "wifi_tx": 6, "pulse_doppler": 2}
        )
        assert _run_emulation("pure", "random", workload=burst) == \
            _run_emulation("compiled", "random", workload=burst)

    def test_performance_mode_bit_identical(self):
        workload = table_ii_workload(2.28)
        assert (
            _run_emulation("pure", "met", workload=workload, jitter=False)
            == _run_emulation("compiled", "met", workload=workload,
                              jitter=False)
        )


# -- harness integration ---------------------------------------------------------


@needs_ext
class TestCompareCoresHarness:
    def test_compare_cores_suite_quick(self):
        from repro.perf import run_suite_compare_cores

        pure_doc, compiled_doc = run_suite_compare_cores(
            ["serving-openloop"], quick=True
        )
        assert pure_doc["core"]["variant"] == "pure"
        assert compiled_doc["core"]["variant"] == "compiled"
        p = pure_doc["scenarios"]["serving-openloop"]
        c = compiled_doc["scenarios"]["serving-openloop"]
        assert (p["events"], p["tasks"], p["makespan_ms"]) == (
            c["events"], c["tasks"], c["makespan_ms"]
        )

    def test_bench_report_records_core(self):
        from repro.perf import run_suite

        with core_select.forced(core_select.CORE_COMPILED):
            doc = run_suite(["serving-openloop"], quick=True)
        assert doc["core"]["variant"] == "compiled"
        assert doc["core"]["build"]["toolchain"]
