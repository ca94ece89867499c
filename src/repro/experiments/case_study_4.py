"""Case Study 4 — automatic application conversion (paper Sec. III-F).

Converts the monolithic range-detection program with the toolchain, then
executes the generated application on the threaded backend (ZCU102 model,
3 cores + 1 FFT accelerator, FRFS) under three substitution modes:

* ``none`` — the outlined naive loop kernels run as-is;
* ``optimized`` — recognized DFT/IDFT kernels rebound to the optimized FFT
  library invocation (the paper's FFTW substitution, 102× there);
* ``accelerator`` — recognized kernels rebound to the FFT device through
  the full DMA protocol (the paper's fabric substitution, 94× there).

Reported speedups are measured per-kernel service times (naive / variant),
averaged across the DFT kernel executions exactly as the paper reports;
output correctness is checked for every run.  The three variants are timed
over :data:`ROUNDS` interleaved rounds in one process, each round running
all three in a rotated order, so a slow moment of the host lands on every
variant alike.  A round's speedup is the baseline's time in that round over
the variant's; the report gives the median and the min–max over rounds,
and the shape check compares medians.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments import monolithic
from repro.runtime.backends.threaded import ThreadedBackend
from repro.runtime.emulation import Emulation
from repro.runtime.workload import validation_workload
from repro.toolchain import ConversionResult, convert

#: Paper-reported speedups for EXPERIMENTS.md comparison.
PAPER_SPEEDUPS = {"optimized": 102.0, "accelerator": 94.0}

#: the substitution modes, in the first round's order
MODES = ("none", "optimized", "accelerator")
#: interleaved timing rounds (each runs every mode once)
ROUNDS = 15


@dataclass
class CS4Variant:
    substitute: str
    #: per round: mean service time (µs) of the recognized DFT executions
    dft_us: list[float]
    #: per round: mean service time (µs) of the recognized IDFT executions
    idft_us: list[float]
    #: every round's output (the detected lag) was correct
    lag_correct: bool


@dataclass
class CS4Result:
    n_samples: int
    kernel_count: int
    io_kernel_count: int
    recognized: list[tuple[str, str]]      # (segment, reference name)
    detection_report: list[dict]
    variants: dict[str, CS4Variant]

    def speedups(self, variant: str, kind: str = "dft") -> list[float]:
        """Per round: the baseline's mean DFT (or IDFT) time over
        ``variant``'s, both measured in that round (the paper's metric)."""
        base = getattr(self.variants["none"], f"{kind}_us")
        other = getattr(self.variants[variant], f"{kind}_us")
        return [b / o for b, o in zip(base, other)]

    def speedup(self, variant: str) -> float:
        """Median over rounds of the DFT speedup."""
        return float(np.median(self.speedups(variant)))

    def idft_speedup(self, variant: str) -> float:
        return float(np.median(self.speedups(variant, "idft")))


def _run_variant(
    conversion: ConversionResult,
    substitute: str,
    n_samples: int,
    *,
    config: str = "3C+1F",
    policy: str = "frfs",
) -> tuple[float, float, bool]:
    """One threaded run of the ``substitute`` variant: its mean DFT and
    IDFT service times (µs) and whether its output was correct."""
    gen = conversion.generate(substitute)
    # Register the recognized kernels' transform sizes so accelerator
    # bindings have a timing/oracle model (virtual backend + schedulers).
    from repro.hardware.perfmodel import PerformanceModel

    perf = PerformanceModel()
    for runfunc, points in gen.accel_job_sizes.items():
        perf.set_accel_job(runfunc, points)
    emu = Emulation(
        config=config,
        policy=policy,
        applications={gen.graph.app_name: gen.graph},
        library=gen.library,
        perf_model=perf,
    )
    result = emu.run(
        validation_workload({gen.graph.app_name: 1}), ThreadedBackend()
    )
    kernel_times = {
        rec.task_name: rec.service_time for rec in result.stats.task_records
    }
    recognized_by_kind: dict[str, list[str]] = {"dft": [], "idft": []}
    for r in conversion.recognized_kernels:
        recognized_by_kind[r.recognized_as].append(r.segment_name)
    dft_times = [kernel_times[n] for n in recognized_by_kind["dft"]]
    idft_times = [kernel_times[n] for n in recognized_by_kind["idft"]]
    lag = result.instances[0].variables["lag"].as_int()
    return (
        float(np.mean(dft_times)) if dft_times else 0.0,
        float(np.mean(idft_times)) if idft_times else 0.0,
        lag == monolithic.expected_lag(n_samples),
    )


def run_case_study_4(
    *,
    n_samples: int = 256,
    workdir: str | None = None,
    config: str = "3C+1F",
) -> CS4Result:
    """The full conversion + the three variants over :data:`ROUNDS`
    interleaved rounds, the order rotated by one each round."""
    cleanup = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="cs4_")
        workdir = tmp.name
        cleanup = tmp
    try:
        conversion = convert(
            monolithic.monolithic_range_detection, (n_samples, workdir)
        )
        variants = {
            mode: CS4Variant(mode, dft_us=[], idft_us=[], lag_correct=True)
            for mode in MODES
        }
        for r in range(ROUNDS):
            k = r % len(MODES)
            for mode in MODES[k:] + MODES[:k]:
                dft, idft, correct = _run_variant(
                    conversion, mode, n_samples, config=config
                )
                variant = variants[mode]
                variant.dft_us.append(dft)
                variant.idft_us.append(idft)
                variant.lag_correct = variant.lag_correct and correct
        io_kernels = sum(
            1
            for seg, out in zip(conversion.segments, conversion.outlined)
            if seg.is_kernel and (out.liveness.resource_defs
                                  or out.liveness.resource_uses)
        )
        return CS4Result(
            n_samples=n_samples,
            kernel_count=conversion.kernel_count,
            io_kernel_count=io_kernels,
            recognized=[
                (r.segment_name, r.recognized_as)
                for r in conversion.recognized_kernels
            ],
            detection_report=conversion.detection_report(),
            variants=variants,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def render_case_study_4(result: CS4Result) -> str:
    det = format_table(
        ["segment", "kind", "events", "share", "source"],
        [[r["segment"], r["kind"], r["events"], r["share"], r["source"]]
         for r in result.detection_report],
        title="Case study 4: kernel detection",
    )
    rows = []
    for mode in ("optimized", "accelerator"):
        dft = result.speedups(mode)
        rows.append(
            [
                mode,
                round(result.speedup(mode), 1),
                f"{min(dft):.1f}-{max(dft):.1f}",
                round(result.idft_speedup(mode), 1),
                PAPER_SPEEDUPS[mode],
                result.variants[mode].lag_correct,
            ]
        )
    n_rounds = len(result.variants["none"].dft_us)
    sp = format_table(
        ["substitution", "dft_speedup_x", "dft_min_max_x", "idft_speedup_x",
         "paper_x", "output_correct"],
        rows,
        title=(
            "Case study 4: recognized-kernel substitution speedups "
            f"(median over {n_rounds} interleaved rounds)"
        ),
    )
    return det + "\n\n" + sp


def check_cs4_shape(result: CS4Result) -> list[str]:
    """The paper's qualitative claims; returns a list of violations."""
    problems: list[str] = []
    if result.kernel_count != 6:
        problems.append(f"expected 6 detected kernels, got {result.kernel_count}")
    if result.io_kernel_count != 3:
        problems.append(
            f"expected 3 file-I/O kernels, got {result.io_kernel_count}"
        )
    kinds = sorted(kind for _seg, kind in result.recognized)
    if kinds != ["dft", "dft", "idft"]:
        problems.append(f"expected 2 DFT + 1 IDFT recognized, got {kinds}")
    for mode in ("optimized", "accelerator"):
        if result.speedup(mode) < 20.0:
            problems.append(
                f"{mode} substitution should speed DFTs up >=20x (median)"
            )
        if not result.variants[mode].lag_correct:
            problems.append(f"{mode} variant output is incorrect")
    if not result.variants["none"].lag_correct:
        problems.append("baseline variant output is incorrect")
    if result.speedup("optimized") < result.speedup("accelerator"):
        problems.append(
            "optimized (FFTW-analog) should beat the accelerator path "
            "(DMA overhead) in the median, as in the paper (102x vs 94x)"
        )
    return problems
