"""The end-to-end conversion pipeline (Fig. 5).

``convert(func, example_args)`` runs trace instrumentation → trace
collection → kernel detection → memory analysis → outlining → recognition,
and returns a :class:`ConversionResult` that can generate the framework
application under any substitution mode without re-tracing.
"""

from __future__ import annotations

import builtins
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import ToolchainError
from repro.toolchain.blocks import FunctionBlocks, split_into_blocks
from repro.toolchain.dag_generation import GeneratedApplication, generate_dag
from repro.toolchain.memory_analysis import (
    SegmentLiveness,
    VariableObservation,
    analyze_liveness,
    observe_segments,
    observe_value,
)
from repro.toolchain.outline import OutlinedSegment, outline_segments
from repro.toolchain.recognition import RecognitionResult, recognize_kernels
from repro.toolchain.trace_analysis import (
    Segment,
    detect_kernels,
    kernel_report,
)
from repro.toolchain.tracing import DynamicTrace, trace_function

import ast


def _result_names(blocks: FunctionBlocks) -> frozenset[str]:
    """Names read by the function's trailing ``return`` expression."""
    tree = ast.parse(blocks.source)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Return) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
    return frozenset(names)


@dataclass
class ConversionResult:
    """Everything the pipeline learned about the monolithic application."""

    func_name: str
    blocks: FunctionBlocks
    trace: DynamicTrace
    segments: list[Segment]
    liveness: list[SegmentLiveness]
    observations: dict[str, VariableObservation]
    outlined: list[OutlinedSegment]
    recognition: list[RecognitionResult]
    initial_values: dict[str, object]

    @property
    def kernel_count(self) -> int:
        return sum(1 for s in self.segments if s.is_kernel)

    @property
    def recognized_kernels(self) -> list[RecognitionResult]:
        return [r for r in self.recognition if r.recognized_as is not None]

    def detection_report(self) -> list[dict]:
        return kernel_report(self.trace, self.segments)

    def generate(self, substitute: str = "both") -> GeneratedApplication:
        """Emit the framework application under a substitution mode."""
        return generate_dag(
            self.func_name,
            self.outlined,
            self.observations,
            self.initial_values,
            self.recognition,
            substitute=substitute,
        )


def convert(func: Callable, example_args: tuple = ()) -> ConversionResult:
    """Convert a monolithic function into a DAG application.

    ``example_args`` plays the role of the representative input the dynamic
    trace is collected on; its values are also baked into the generated
    application's variable initializers.  Detection uses the thresholds of
    :mod:`repro.toolchain.trace_analysis` and every kernel goes through
    recognition; ``generate("none")`` gives the app without substitution.
    """
    blocks = split_into_blocks(func)
    if len(example_args) != len(blocks.arg_names):
        raise ToolchainError(
            f"{func.__name__} takes {len(blocks.arg_names)} arguments "
            f"({blocks.arg_names}); got {len(example_args)} example values"
        )
    trace = trace_function(func, example_args, blocks=blocks)
    segments = detect_kernels(trace)

    # Externals: anything resolvable in the function's globals or builtins
    # is a library reference, not a program variable.
    global_ns = dict(func.__globals__)
    external = frozenset(
        name
        for name in _collect_names(blocks)
        if name in global_ns or hasattr(builtins, name)
    ) - frozenset(blocks.arg_names)

    liveness = analyze_liveness(
        blocks,
        segments,
        external_names=external,
        result_names=_result_names(blocks),
        initial_names=frozenset(blocks.arg_names),
    )
    initial_locals = dict(zip(blocks.arg_names, example_args))
    observations = observe_segments(
        blocks, segments, liveness, global_ns, initial_locals
    )
    for name, value in initial_locals.items():
        observations.setdefault(name, observe_value(name, value))

    outlined = outline_segments(
        blocks, segments, liveness, observations, global_ns,
        func_name=func.__name__,
    )
    return ConversionResult(
        func_name=func.__name__,
        blocks=blocks,
        trace=trace,
        segments=segments,
        liveness=liveness,
        observations=observations,
        outlined=outlined,
        recognition=recognize_kernels(outlined),
        initial_values=initial_locals,
    )


def _collect_names(blocks: FunctionBlocks) -> set[str]:
    names: set[str] = set()
    for block in blocks.blocks:
        for node in ast.walk(block.node):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names
