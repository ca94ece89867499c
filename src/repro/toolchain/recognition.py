"""Kernel recognition and optimized substitution (paper Sec. II-E, III-F).

Recognizing "a naive for loop-based DFT would allow this compilation
process to substitute in a call to an FFT library or add support for an
FFT accelerator".  Recognition combines:

* a **normalized-AST hash** — variable names canonicalized by first
  appearance, constants kept — which fingerprints the kernel's shape
  (reported with each result), and
* an **operational probe** — the outlined kernel is run on two synthesized
  inputs and its output compared against each known reference computation
  (forward/inverse DFT).  Only semantically verified kernels are rebound,
  so the substitution can never change program output.

A recognized kernel's DAG node gets its ``cpu`` runfunc redirected to an
optimized implementation in ``fft_optimized.so`` (the FFTW-analog: NumPy's
compiled FFT) and gains an ``fft`` accelerator platform entry in
``fft_accel_auto.so`` that drives the device through the DMA protocol —
via the per-platform ``shared_object`` key, exactly like Listing 1.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.appmodel.library import KernelContext
from repro.common.errors import ToolchainError
from repro.toolchain.memory_analysis import VariableObservation
from repro.toolchain.outline import (
    OutlinedSegment,
    decode_variable,
    encode_variable,
)

OPTIMIZED_SHARED_OBJECT = "fft_optimized.so"
ACCEL_SHARED_OBJECT = "fft_accel_auto.so"


# -- normalized AST hashing -----------------------------------------------------------


class _Normalizer(ast.NodeTransformer):
    """Rename variables to canonical v0, v1, ... by first appearance."""

    def __init__(self) -> None:
        self.mapping: dict[str, str] = {}

    def visit_Name(self, node: ast.Name):
        canon = self.mapping.setdefault(node.id, f"v{len(self.mapping)}")
        return ast.copy_location(ast.Name(id=canon, ctx=node.ctx), node)


def normalized_hash(source: str) -> str:
    """Structure hash of a code fragment, stable under variable renaming."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ToolchainError(f"cannot hash unparsable source: {exc}") from exc
    normalized = _Normalizer().visit(tree)
    dump = ast.dump(normalized, annotate_fields=False, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()[:16]


# -- operational probing ---------------------------------------------------------------


def _probe_signature(
    outlined: OutlinedSegment,
) -> tuple[VariableObservation, VariableObservation] | None:
    """Identify (input-array, output-array) for a transform-shaped kernel:
    exactly one complex live-out array (the result — it may also appear as
    a live-in when the loop fills a pre-allocated buffer in place) and
    exactly one *other* complex live-in array of the same length (scalar
    live-ins like ``n`` are tolerated)."""
    complex_out = [
        o for o in outlined.live_out_obs
        if o.kind == "ndarray" and np.dtype(o.dtype).kind == "c"
    ]
    if len(complex_out) != 1:
        return None
    out = complex_out[0]
    complex_in = [
        o for o in outlined.live_in_obs
        if o.kind == "ndarray" and np.dtype(o.dtype).kind == "c"
        and o.name != out.name
    ]
    if len(complex_in) != 1:
        return None
    if complex_in[0].length != out.length:
        return None
    return complex_in[0], out


def _run_probe(
    outlined: OutlinedSegment,
    in_obs: VariableObservation,
    out_obs: VariableObservation,
    probe_input: np.ndarray,
) -> np.ndarray | None:
    """Execute the outlined kernel on a probe input via a scratch instance."""
    from repro.appmodel.builder import GraphBuilder
    from repro.appmodel.instance import ApplicationInstance
    from repro.toolchain.outline import variable_spec_for

    b = GraphBuilder("probe", "probe.so")
    for obs in {o.name: o for o in
                (*outlined.live_in_obs, *outlined.live_out_obs)}.values():
        init = probe_input if obs.name == in_obs.name else None
        if obs.kind == "int" and obs.name != in_obs.name:
            # scalars like n_samples: seed with the probe length
            b.variable(variable_spec_for(obs, initial=probe_input.size))
            continue
        b.variable(variable_spec_for(obs, initial=init))
    b.node("PROBE", args=outlined.argument_names(), cpu=outlined.runfunc)
    graph = b.build()
    instance = ApplicationInstance(graph, instance_id=0, arrival_time=0.0)
    ctx = KernelContext(
        instance.variables,
        arg_names=outlined.argument_names(),
        platform="cpu",
        node_name="PROBE",
        app_name="probe",
    )
    try:
        outlined.kernel(ctx)
    except Exception:
        return None
    result = decode_variable(ctx, out_obs)
    return np.asarray(result, dtype=np.complex128).copy()


_REFERENCES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "dft": lambda x: np.fft.fft(x),
    "idft": lambda x: np.fft.ifft(x),
}


@dataclass
class RecognitionResult:
    """Outcome for one kernel segment."""

    segment_name: str
    ast_hash: str
    recognized_as: str | None          # "dft" | "idft" | None
    in_var: str = ""
    out_var: str = ""
    length: int = 0


#: RNG seeds of the two probe inputs: a kernel is recognized only if it
#: matches the reference on both, so two distinct inputs must be drawn
PROBE_SEEDS = (0xBEEF + 16, 0xBEEF + 32)
#: relative and absolute tolerance of the probe comparison (``np.allclose``):
#: the complex128 reference against the outlined loop's own arithmetic
PROBE_RTOL = 1e-6
PROBE_ATOL = 1e-8


def _probe_input(seed: int, in_obs: VariableObservation) -> np.ndarray:
    """A random complex input with the observed length and dtype."""
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal(in_obs.length)
        + 1j * rng.standard_normal(in_obs.length)
    ).astype(np.dtype(in_obs.dtype))


def recognize_kernels(outlined: list[OutlinedSegment]) -> list[RecognitionResult]:
    """Classify every kernel segment against the reference library.

    A transform-shaped kernel is run once on each of the ``PROBE_SEEDS``
    inputs, and it is recognized as the first reference (forward, then
    inverse DFT) whose output it matches on every probe within
    ``PROBE_RTOL`` / ``PROBE_ATOL``.
    """
    results: list[RecognitionResult] = []
    for seg in outlined:
        if not seg.is_kernel:
            continue
        result = RecognitionResult(segment_name=seg.name,
                                   ast_hash=normalized_hash(seg.source),
                                   recognized_as=None)
        sig = _probe_signature(seg)
        if sig is not None:
            in_obs, out_obs = sig
            probes = [_probe_input(seed, in_obs) for seed in PROBE_SEEDS]
            outputs = [_run_probe(seg, in_obs, out_obs, p) for p in probes]
            for ref_name, ref in _REFERENCES.items():
                if all(
                    got is not None and np.allclose(
                        got, ref(probe.astype(np.complex128)),
                        PROBE_RTOL, PROBE_ATOL,
                    )
                    for probe, got in zip(probes, outputs)
                ):
                    result.recognized_as = ref_name
                    result.in_var = in_obs.name
                    result.out_var = out_obs.name
                    result.length = in_obs.length
                    break
        results.append(result)
    return results


# -- optimized replacement kernels --------------------------------------------------------


def make_optimized_kernel(
    kind: str,
    in_obs: VariableObservation,
    out_obs: VariableObservation,
):
    """The FFTW-analog invocation with the recognized kernel's signature."""
    ref = _REFERENCES[kind]

    def kernel(ctx: KernelContext) -> None:
        data = np.asarray(decode_variable(ctx, in_obs), dtype=np.complex128)
        encode_variable(ctx, out_obs, ref(data))
        # Live-outs the original loop also produced (indices, accumulators)
        # keep their framework defaults; transform output is what matters.

    kernel.__name__ = f"optimized_{kind}"
    return kernel


def make_accelerator_kernel(
    kind: str,
    in_obs: VariableObservation,
    out_obs: VariableObservation,
):
    """An accelerator invocation driving the device's DMA protocol."""
    inverse = kind == "idft"

    def kernel(ctx: KernelContext) -> None:
        device = ctx.device
        if device is None:
            raise ToolchainError(
                f"accelerator kernel for {ctx.node_name!r} invoked without "
                "a device"
            )
        data = np.asarray(decode_variable(ctx, in_obs), dtype=np.complex64)
        device.load(data, inverse=inverse)
        device.start()
        device.step()
        result = device.read_result()
        encode_variable(ctx, out_obs, result.astype(np.complex128))

    kernel.__name__ = f"accel_{kind}"
    return kernel
