"""Dynamic trace instrumentation and collection (the TraceAtlas analog).

The LLVM flow compiles the application with tracing hooks and dumps a
runtime trace to disk.  Here, a ``sys.settrace`` line tracer records every
executed line of the target function; per-block dynamic event counts are
the hotness signal (a loop's block accumulates one event per executed line
per iteration), and the block-visit sequence is the control-flow trace.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import ToolchainError
from repro.toolchain.blocks import FunctionBlocks, split_into_blocks


@dataclass
class DynamicTrace:
    """Collected trace: dynamic event counts and block visit order."""

    blocks: FunctionBlocks
    line_events: dict[int, int]          # block index -> dynamic line events
    visit_sequence: list[int]            # deduped consecutive block visits
    total_events: int
    return_value: object = None

    def events_of(self, block_index: int) -> int:
        return self.line_events.get(block_index, 0)

    def hotness(self, block_index: int) -> float:
        """Share of all dynamic events spent in this block."""
        if self.total_events == 0:
            return 0.0
        return self.events_of(block_index) / self.total_events

    def amplification(self, block_index: int) -> float:
        """Dynamic events per static line — loop-iteration amplification."""
        block = self.blocks.blocks[block_index]
        return self.events_of(block_index) / max(1, block.static_lines)


def trace_function(
    func: Callable,
    args: tuple = (),
    *,
    blocks: FunctionBlocks | None = None,
) -> DynamicTrace:
    """Execute ``func(*args)`` under line tracing.

    Only frames whose code object belongs to ``func`` are instrumented, so
    library calls inside a block (e.g. ``np.fft.fft``) count as a single
    event — analogous to an IR call instruction — while interpreted loops
    accumulate per-iteration events.
    """
    if blocks is None:
        blocks = split_into_blocks(func)
    target_code = func.__code__
    counts: dict[int, int] = {}
    sequence: list[int] = []
    total = 0
    # The function's reported line numbers are absolute in its source file;
    # our blocks are numbered within the dedented extract.  Align them.
    offset = target_code.co_firstlineno - 1

    def tracer(frame, event, arg):
        nonlocal total
        if frame.f_code is not target_code:
            return None  # do not descend into callees
        if event == "line":
            rel = frame.f_lineno - offset
            block_idx = blocks.block_of_line(rel)
            if block_idx is not None:
                counts[block_idx] = counts.get(block_idx, 0) + 1
                total += 1
                if not sequence or sequence[-1] != block_idx:
                    sequence.append(block_idx)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = func(*args)
    except Exception as exc:
        raise ToolchainError(
            f"traced execution of {func.__name__!r} failed: {exc}"
        ) from exc
    finally:
        sys.settrace(old)
    if total == 0:
        raise ToolchainError(
            f"trace of {func.__name__!r} recorded no events (empty function?)"
        )
    return DynamicTrace(
        blocks=blocks,
        line_events=counts,
        visit_sequence=sequence,
        total_events=total,
        return_value=result,
    )
