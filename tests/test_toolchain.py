"""Tests for the automatic application conversion toolchain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ToolchainError
from repro.toolchain import convert, recognition, trace_analysis
from repro.toolchain.blocks import split_into_blocks
from repro.toolchain.memory_analysis import observe_value
from repro.toolchain.recognition import normalized_hash
from repro.toolchain.trace_analysis import detect_kernels
from repro.toolchain.tracing import trace_function


# -- sample monolithic programs used across the tests ---------------------------------


def tiny_dft_app(n: int):
    """Minimal convertible app: setup, naive DFT loop, peak search."""
    x = np.exp(2j * np.pi * 3.0 * np.arange(n) / n)
    x = x + 0.001 * np.arange(n)
    X = [0j] * n
    for k in range(n):
        acc = 0j
        for i in range(n):
            acc += x[i] * np.exp(-2j * np.pi * k * i / n)
        X[k] = acc
    peak = int(np.argmax(np.abs(np.asarray(X))))
    return peak


def scaling_app(n: int):
    """Two independent hot loops writing disjoint outputs."""
    a = np.zeros(n)
    b = np.zeros(n)
    for i in range(n):
        a[i] = i * 2.0
    for i in range(n):
        b[i] = i * 3.0
    total = float(np.sum(a) + np.sum(b))
    return total


def branching_app(n: int):
    if n > 2:
        n = n + 1
    return n


class TestBlocks:
    def test_splits_top_level_statements(self):
        blocks = split_into_blocks(tiny_dft_app)
        assert len(blocks.blocks) == 5
        assert blocks.arg_names == ("n",)

    def test_docstring_skipped(self):
        def with_doc(n):
            """doc line."""
            x = n + 1
            return x

        blocks = split_into_blocks(with_doc)
        assert len(blocks.blocks) == 1

    def test_line_map_covers_loop_bodies(self):
        blocks = split_into_blocks(tiny_dft_app)
        loop_block = blocks.blocks[2]
        for line in range(loop_block.first_line, loop_block.last_line + 1):
            assert blocks.block_of_line(line) == loop_block.index

    def test_top_level_if_rejected(self):
        with pytest.raises(ToolchainError, match="linear-flow"):
            split_into_blocks(branching_app)

    def test_lambda_rejected(self):
        with pytest.raises(ToolchainError):
            split_into_blocks(lambda n: n)

    def test_empty_body_rejected(self):
        def empty():
            """only a docstring"""

        with pytest.raises(ToolchainError, match="empty body"):
            split_into_blocks(empty)


class TestTracing:
    def test_loop_blocks_accumulate_events(self):
        trace = trace_function(tiny_dft_app, (8,))
        # the DFT loop block dominates
        hottest = max(trace.line_events, key=trace.line_events.get)
        assert trace.blocks.blocks[hottest].source.startswith("for k")
        assert trace.amplification(hottest) > 8.0

    def test_return_value_captured(self):
        trace = trace_function(tiny_dft_app, (8,))
        assert trace.return_value == 3

    def test_callees_not_traced(self):
        def calls_numpy(n):
            x = np.fft.fft(np.ones(n))  # large library call, one statement
            y = float(np.abs(x).sum())
            return y

        trace = trace_function(calls_numpy, (512,))
        assert trace.total_events <= 4

    def test_failing_function_reported(self):
        def boom(n):
            x = 1 / (n - n)
            return x

        with pytest.raises(ToolchainError, match="failed"):
            trace_function(boom, (1,))

    def test_visit_sequence_ordered(self):
        trace = trace_function(scaling_app, (16,))
        seq = trace.visit_sequence
        assert seq == sorted(seq)  # linear program visits blocks in order


class TestDetection:
    def test_hot_loops_become_kernels(self):
        trace = trace_function(tiny_dft_app, (16,))
        segments = detect_kernels(trace)
        kinds = [s.kind for s in segments]
        assert kinds.count("kernel") == 1
        kernel = next(s for s in segments if s.is_kernel)
        assert trace.blocks.blocks[kernel.block_indices[0]].source.startswith(
            "for k"
        )

    def test_adjacent_kernels_stay_separate_by_default(self):
        trace = trace_function(scaling_app, (64,))
        segments = detect_kernels(trace)
        kernel_segments = [s for s in segments if s.is_kernel]
        assert len(kernel_segments) == 2

    def test_thresholds_control_labeling(self, monkeypatch):
        trace = trace_function(tiny_dft_app, (16,))
        monkeypatch.setattr(trace_analysis, "AMPLIFICATION_THRESHOLD", 1e9)
        assert all(not s.is_kernel for s in detect_kernels(trace))

    def test_segment_names_assigned(self):
        trace = trace_function(tiny_dft_app, (16,))
        segments = detect_kernels(trace)
        names = [s.name for s in segments]
        assert "KERNEL_0" in names and "NODE_0" in names


class TestObservation:
    def test_kinds(self):
        assert observe_value("i", 3).kind == "int"
        assert observe_value("f", 2.5).kind == "float"
        assert observe_value("c", 1j).kind == "complex"
        obs = observe_value("a", np.zeros(4, dtype=np.complex64))
        assert obs.kind == "ndarray" and obs.length == 4 and obs.nbytes == 32
        assert observe_value("s", "path/x.txt").kind == "str"

    def test_numeric_list_becomes_ndarray(self):
        obs = observe_value("l", [1.0, 2.0, 3.0])
        assert obs.kind == "ndarray" and obs.length == 3

    def test_2d_array_rejected(self):
        with pytest.raises(ToolchainError, match="1-D"):
            observe_value("m", np.zeros((2, 2)))

    def test_unsupported_type_rejected(self):
        with pytest.raises(ToolchainError, match="cannot cross"):
            observe_value("d", {"a": 1})


class TestConversion:
    def test_tiny_app_converts_and_recognizes(self):
        result = convert(tiny_dft_app, (16,))
        assert result.kernel_count == 1
        assert [r.recognized_as for r in result.recognized_kernels] == ["dft"]

    def test_generated_app_reproduces_output(self):
        result = convert(tiny_dft_app, (16,))
        gen = result.generate("none")
        from repro.runtime.backends import ThreadedBackend
        from repro.runtime.emulation import Emulation
        from repro.runtime.workload import validation_workload

        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={gen.graph.app_name: gen.graph},
            library=gen.library,
        )
        res = emu.run(
            validation_workload({gen.graph.app_name: 1}), ThreadedBackend()
        )
        instance = res.instances[0]
        assert instance.variables["peak"].as_int() == 3

    def test_optimized_variant_matches_naive_output(self):
        result = convert(tiny_dft_app, (16,))
        from repro.runtime.backends import ThreadedBackend
        from repro.runtime.emulation import Emulation
        from repro.runtime.workload import validation_workload

        peaks = {}
        for mode in ("none", "optimized"):
            gen = result.generate(mode)
            emu = Emulation(
                config="2C+0F", policy="frfs",
                applications={gen.graph.app_name: gen.graph},
                library=gen.library,
            )
            res = emu.run(
                validation_workload({gen.graph.app_name: 1}), ThreadedBackend()
            )
            peaks[mode] = res.instances[0].variables["peak"].as_int()
        assert peaks["none"] == peaks["optimized"] == 3

    def test_independent_kernels_parallelized(self):
        result = convert(scaling_app, (64,))
        gen = result.generate("none")
        kernels = [s.name for s in result.segments if s.is_kernel]
        a, b = kernels
        # neither kernel depends on the other (disjoint footprints)
        assert a not in gen.graph.nodes[b].predecessors
        assert b not in gen.graph.nodes[a].predecessors

    def test_argument_count_mismatch_rejected(self):
        with pytest.raises(ToolchainError, match="arguments"):
            convert(tiny_dft_app, ())

    def test_variable_initializers_baked_into_json(self):
        result = convert(tiny_dft_app, (16,))
        gen = result.generate("none")
        spec = gen.graph.variables["n"]
        decoded = int.from_bytes(bytes(spec.val), "little", signed=True)
        assert decoded == 16

    def test_bad_substitution_mode_rejected(self):
        result = convert(tiny_dft_app, (16,))
        with pytest.raises(ToolchainError, match="substitution"):
            result.generate("turbo")

    def test_detection_report_structure(self):
        result = convert(tiny_dft_app, (16,))
        report = result.detection_report()
        assert all(
            {"segment", "kind", "events", "share", "source"} <= set(r)
            for r in report
        )


class TestRecognitionDetails:
    def test_hash_stable_under_variable_renaming(self):
        src_a = "for k in range(n):\n    out[k] = data[k] * 2"
        src_b = "for j in range(m):\n    res[j] = vals[j] * 2"
        assert normalized_hash(src_a) == normalized_hash(src_b)

    def test_hash_differs_for_different_structure(self):
        src_a = "for k in range(n):\n    out[k] = data[k] * 2"
        src_c = "for k in range(n):\n    out[k] = data[k] + 2"
        assert normalized_hash(src_a) != normalized_hash(src_c)

    def test_hash_rejects_bad_source(self):
        with pytest.raises(ToolchainError):
            normalized_hash("for for for")

    def test_non_transform_kernel_not_recognized(self):
        result = convert(scaling_app, (64,))
        assert result.recognized_kernels == []

    def test_idft_recognized(self):
        def idft_app(n: int):
            spec = np.exp(-2j * np.pi * 5.0 * np.arange(n) / n)
            spec = spec + 0j
            out = [0j] * n
            for k in range(n):
                acc = 0j
                for i in range(n):
                    acc += spec[i] * np.exp(2j * np.pi * k * i / n)
                out[k] = acc / n
            peak = int(np.argmax(np.abs(np.asarray(out))))
            return peak

        result = convert(idft_app, (16,))
        assert [r.recognized_as for r in result.recognized_kernels] == ["idft"]

    def test_short_kernel_gets_two_distinct_probes(self, monkeypatch):
        """A kernel shorter than 32 points used to be probed twice with the
        same input: the probe length only seeded the RNG, clipped to the
        kernel's length."""
        seen: list[np.ndarray] = []
        run_probe = recognition._run_probe

        def spy(outlined, in_obs, out_obs, probe_input):
            seen.append(probe_input.copy())
            return run_probe(outlined, in_obs, out_obs, probe_input)

        monkeypatch.setattr(recognition, "_run_probe", spy)
        result = convert(tiny_dft_app, (16,))
        assert [r.recognized_as for r in result.recognized_kernels] == ["dft"]
        assert [p.size for p in seen] == [16, 16]
        assert not np.array_equal(seen[0], seen[1])


class TestMonolithicRangeDetection:
    """The Case Study 4 program itself (small size for speed)."""

    def test_full_conversion_matches_paper_structure(self, tmp_path):
        from repro.experiments.monolithic import monolithic_range_detection

        result = convert(monolithic_range_detection, (32, str(tmp_path)))
        assert result.kernel_count == 6
        kinds = sorted(r.recognized_as for r in result.recognized_kernels)
        assert kinds == ["dft", "dft", "idft"]

    def test_file_io_ordering_preserved(self, tmp_path):
        from repro.experiments.monolithic import monolithic_range_detection

        result = convert(monolithic_range_detection, (32, str(tmp_path)))
        gen = result.generate("none")
        # the read kernel must depend on both write kernels
        reads = [
            s.name for s, o in zip(result.segments, result.outlined)
            if o.liveness.resource_uses
        ]
        writes = [
            s.name for s, o in zip(result.segments, result.outlined)
            if o.liveness.resource_defs
        ]
        assert len(reads) == 1 and len(writes) == 2
        read_node = gen.graph.nodes[reads[0]]
        for w in writes:
            assert w in read_node.predecessors

    def test_generated_app_correct_output(self, tmp_path):
        from repro.experiments.monolithic import (
            expected_lag,
            monolithic_range_detection,
        )
        from repro.runtime.backends import ThreadedBackend
        from repro.runtime.emulation import Emulation
        from repro.runtime.workload import validation_workload

        result = convert(monolithic_range_detection, (32, str(tmp_path)))
        gen = result.generate("optimized")
        emu = Emulation(
            config="2C+0F", policy="frfs",
            applications={gen.graph.app_name: gen.graph},
            library=gen.library,
        )
        res = emu.run(
            validation_workload({gen.graph.app_name: 1}), ThreadedBackend()
        )
        assert res.instances[0].variables["lag"].as_int() == expected_lag(32)
