"""Kernel detection over the dynamic trace.

A block is labeled a **kernel** when its dynamic behaviour dominates the
trace — "a set of highly correlated IR-level blocks ... that execute
frequently in the base program", i.e. labeling the hot sections.  Two
signals combine:

* *hotness* — the block's share of all dynamic line events, and
* *amplification* — dynamic events per static line (loop iteration count),
  which separates a 3-line loop running 10⁵ iterations from 30 straight-
  line statements that each ran once.

Contiguous runs of same-label blocks merge into :class:`Segment` objects —
the alternating "kernel"/"non-kernel" groups the paper partitions the
original file into.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ToolchainError
from repro.toolchain.tracing import DynamicTrace


@dataclass
class Segment:
    """A contiguous group of blocks with one label."""

    index: int
    kind: str                     # "kernel" | "non_kernel"
    block_indices: tuple[int, ...]
    dynamic_events: int
    name: str = ""

    @property
    def is_kernel(self) -> bool:
        return self.kind == "kernel"


#: a kernel runs at least this many dynamic events per static line (a loop)
AMPLIFICATION_THRESHOLD = 8.0
#: ... and holds at least this share of all dynamic events (it is hot) ...
HOTNESS_THRESHOLD = 0.005
#: ... unless it is amplified this strongly, which keeps long I/O loops
#: kernels even when a quadratic compute loop dominates the event share
STRONG_AMPLIFICATION = 32.0


def detect_kernels(trace: DynamicTrace) -> list[Segment]:
    """Partition the traced blocks into kernel / non-kernel segments.

    A block is a kernel when it is loop-amplified (≥
    ``AMPLIFICATION_THRESHOLD`` events per static line) and either hot
    (≥ ``HOTNESS_THRESHOLD`` of all dynamic events) or *strongly*
    amplified (≥ ``STRONG_AMPLIFICATION``).  Each kernel block is its own
    segment, so each hot loop outlines to its own DAG node (two
    back-to-back DFT loops become two kernels, as in the paper's
    range-detection conversion); runs of non-kernel blocks merge.
    """
    blocks = trace.blocks.blocks
    if not blocks:
        raise ToolchainError("no blocks to analyze")
    labels: list[str] = []
    for block in blocks:
        hot = trace.hotness(block.index) >= HOTNESS_THRESHOLD
        amp = trace.amplification(block.index)
        is_kernel = amp >= AMPLIFICATION_THRESHOLD and (
            hot or amp >= STRONG_AMPLIFICATION
        )
        labels.append("kernel" if is_kernel else "non_kernel")

    segments: list[Segment] = []
    run: list[int] = []
    run_kind = labels[0]

    def flush() -> None:
        if not run:
            return
        events = sum(trace.events_of(b) for b in run)
        segments.append(
            Segment(
                index=len(segments),
                kind=run_kind,
                block_indices=tuple(run),
                dynamic_events=events,
            )
        )

    for block, label in zip(blocks, labels):
        if run and label == run_kind == "non_kernel":
            run.append(block.index)
        else:
            flush()
            run = [block.index]
            run_kind = label
    flush()

    kernel_counter = 0
    other_counter = 0
    for seg in segments:
        if seg.is_kernel:
            seg.name = f"KERNEL_{kernel_counter}"
            kernel_counter += 1
        else:
            seg.name = f"NODE_{other_counter}"
            other_counter += 1
    return segments


def kernel_report(trace: DynamicTrace, segments: list[Segment]) -> list[dict]:
    """Human-readable detection summary (one row per segment)."""
    rows = []
    for seg in segments:
        first = trace.blocks.blocks[seg.block_indices[0]]
        rows.append(
            {
                "segment": seg.name,
                "kind": seg.kind,
                "blocks": len(seg.block_indices),
                "events": seg.dynamic_events,
                "share": round(seg.dynamic_events / trace.total_events, 4),
                "source": first.summary(),
            }
        )
    return rows
