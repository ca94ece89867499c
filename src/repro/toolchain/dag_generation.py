"""JSON-compatible DAG generation from outlined segments.

Builds the Listing-1 task graph for a converted application: one node per
segment, variables from the memory analysis (with the monolithic
function's argument values baked in as byte initializers), data-flow
dependencies from the live sets — independent kernels with disjoint memory
footprints become parallel DAG branches (the paper's Sec. III-F future-work
item) — and, for recognized kernels, substituted platform bindings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph
from repro.appmodel.library import KernelLibrary
from repro.common.errors import ToolchainError
from repro.toolchain.memory_analysis import VariableObservation
from repro.toolchain.outline import OutlinedSegment, variable_spec_for
from repro.toolchain.recognition import (
    ACCEL_SHARED_OBJECT,
    OPTIMIZED_SHARED_OBJECT,
    RecognitionResult,
    make_accelerator_kernel,
    make_optimized_kernel,
)

#: substitution modes for recognized kernels
SUBSTITUTIONS = ("none", "optimized", "accelerator", "both")


def _dataflow_edges(outlined: list[OutlinedSegment]) -> list[tuple[int, int]]:
    """Edges from true/anti/output dependencies over boundary variables,
    transitively reduced."""
    n = len(outlined)
    reads = [
        set(o.liveness.live_in) | set(o.liveness.resource_uses) for o in outlined
    ]
    writes = [
        set(o.liveness.live_out) | set(o.liveness.resource_defs) for o in outlined
    ]
    dep = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if writes[i] & reads[j] or writes[i] & writes[j] or reads[i] & writes[j]:
                dep[i][j] = True
    # transitive closure then reduction (segment counts are small)
    reach = [row[:] for row in dep]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    edges: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if not dep[i][j]:
                continue
            redundant = any(
                dep[i][k] and reach[k][j] for k in range(i + 1, j)
            )
            if not redundant:
                edges.append((i, j))
    return edges


@dataclass
class GeneratedApplication:
    """A converted application ready for the runtime."""

    graph: TaskGraph
    library: KernelLibrary
    substitute: str
    recognized: dict[str, RecognitionResult]  # segment name -> result
    accel_job_sizes: dict[str, int]           # accel runfunc -> FFT points


def generate_dag(
    func_name: str,
    outlined: list[OutlinedSegment],
    observations: dict[str, VariableObservation],
    initial_values: dict[str, object],
    recognition: list[RecognitionResult] | None = None,
    *,
    substitute: str = "both",
) -> GeneratedApplication:
    """Emit the task graph + kernel library for one substitution mode."""
    if substitute not in SUBSTITUTIONS:
        raise ToolchainError(
            f"unknown substitution mode {substitute!r} (use {SUBSTITUTIONS})"
        )
    recognized = {
        r.segment_name: r
        for r in (recognition or [])
        if r.recognized_as is not None
    }
    shared_object = f"{func_name}_auto.so"
    builder = GraphBuilder(f"{func_name}_auto_{substitute}", shared_object)

    # Variables: every boundary-crossing observation; argument values are
    # baked in as byte initializers (Listing 1's ``val`` vectors).
    for name in sorted(observations):
        builder.variable(
            variable_spec_for(observations[name], initial_values.get(name))
        )

    library = KernelLibrary()
    base_symbols = {o.runfunc: o.kernel for o in outlined}
    library.register_shared_object(shared_object, base_symbols)
    optimized_symbols: dict[str, object] = {}
    accel_symbols: dict[str, object] = {}
    accel_job_sizes: dict[str, int] = {}

    node_platforms: dict[str, list[PlatformBinding]] = {}
    for seg in outlined:
        platforms = [PlatformBinding(name="cpu", runfunc=seg.runfunc)]
        rec = recognized.get(seg.name)
        if rec is not None and substitute != "none":
            in_obs = observations[rec.in_var]
            out_obs = observations[rec.out_var]
            if substitute in ("optimized", "both"):
                opt_name = f"{seg.runfunc}_optimized"
                optimized_symbols[opt_name] = make_optimized_kernel(
                    rec.recognized_as, in_obs, out_obs
                )
                platforms[0] = PlatformBinding(
                    name="cpu",
                    runfunc=opt_name,
                    shared_object=OPTIMIZED_SHARED_OBJECT,
                )
            if substitute in ("accelerator", "both"):
                accel_name = f"{seg.runfunc}_accel"
                accel_symbols[accel_name] = make_accelerator_kernel(
                    rec.recognized_as, in_obs, out_obs
                )
                binding = PlatformBinding(
                    name="fft",
                    runfunc=accel_name,
                    shared_object=ACCEL_SHARED_OBJECT,
                )
                accel_job_sizes[accel_name] = rec.length
                if substitute == "accelerator":
                    # force accelerator execution for the measurement variant
                    platforms = [binding]
                else:
                    platforms.append(binding)
        node_platforms[seg.name] = platforms

    if optimized_symbols:
        library.register_shared_object(OPTIMIZED_SHARED_OBJECT, optimized_symbols)
    if accel_symbols:
        library.register_shared_object(ACCEL_SHARED_OBJECT, accel_symbols)

    for seg in outlined:
        builder.node(
            seg.name,
            args=seg.argument_names(),
            platforms=node_platforms[seg.name],
        )
    for i, j in _dataflow_edges(outlined):
        builder.edge(outlined[i].name, outlined[j].name)

    return GeneratedApplication(
        graph=builder.build(),
        library=library,
        substitute=substitute,
        recognized=recognized,
        accel_job_sizes=accel_job_sizes,
    )
