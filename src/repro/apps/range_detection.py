"""Radar range detection (paper Fig. 2 / Listing 1) — 6 tasks.

Pipeline: generate the LFM reference chirp, FFT both the received signal
and the chirp, multiply the RX spectrum with the conjugated reference
spectrum, inverse-FFT to get the cross-correlation, and locate its peak —
whose lag is the round-trip delay, hence the range.

Task graph (matches Listing 1's structure)::

    LFM ──────► FFT_1 ─┐
    FFT_0 ─────────────┴► MUL ► IFFT ► MAX

``FFT_0``, ``FFT_1`` and ``IFFT`` carry both a CPU binding and an ``fft``
accelerator binding whose runfuncs live in the separate ``fft_accel.so``
shared object, exactly as in Listing 1's ``FFT_0`` node.
"""

from __future__ import annotations

import numpy as np

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph
from repro.appmodel.library import KernelContext
from repro.apps.kernels import correlation, lfm

APP_NAME = "range_detection"
SHARED_OBJECT = "range_detection.so"
ACCEL_SHARED_OBJECT = "fft_accel.so"

N_SAMPLES = 256
SAMPLING_RATE = 2_560_000  # Hz
TRUE_DELAY = 37            # samples; setup synthesizes the echo here
ECHO_SNR_DB = 20.0
_BUF = N_SAMPLES * 8       # complex64 buffer size in bytes


# -- kernels (the shared object) ------------------------------------------------


def _chirp() -> np.ndarray:
    return lfm.lfm_chirp(N_SAMPLES, sampling_rate=float(SAMPLING_RATE))


def range_detect_setup(ctx: KernelContext) -> None:
    """Instance initialization: synthesize the received echo.

    Writes ``rx`` = attenuated chirp delayed by ``TRUE_DELAY`` samples plus
    AWGN, seeded deterministically so validation is reproducible.
    """
    rng = np.random.default_rng(0x52D)  # stable seed: reproducible validation
    echo = lfm.delayed_echo(_chirp(), TRUE_DELAY, attenuation=0.6)
    noise_scale = 0.6 / (10.0 ** (ECHO_SNR_DB / 20.0))
    noise = noise_scale * (
        rng.standard_normal(N_SAMPLES) + 1j * rng.standard_normal(N_SAMPLES)
    ) / np.sqrt(2.0)
    ctx.complex64("rx")[:] = (echo + noise).astype(np.complex64)


def range_detect_LFM(ctx: KernelContext) -> None:
    """Generate the reference LFM chirp into ``lfm_waveform``."""
    n = ctx.int("n_samples")
    ctx.complex64("lfm_waveform")[:n] = _chirp()[:n].astype(np.complex64)


def range_detect_FFT_0_CPU(ctx: KernelContext) -> None:
    """FFT of the received signal: X1 = FFT(rx)."""
    n = ctx.int("n_samples")
    ctx.complex64("X1")[:n] = np.fft.fft(ctx.complex64("rx")[:n]).astype(np.complex64)


def range_detect_FFT_1_CPU(ctx: KernelContext) -> None:
    """FFT of the reference chirp: X2 = FFT(lfm_waveform)."""
    n = ctx.int("n_samples")
    ctx.complex64("X2")[:n] = np.fft.fft(
        ctx.complex64("lfm_waveform")[:n]
    ).astype(np.complex64)


def range_detect_MUL(ctx: KernelContext) -> None:
    """Correlation spectrum: corr_spec = X1 * conj(X2)."""
    n = ctx.int("n_samples")
    ctx.complex64("corr_spec")[:n] = correlation.correlate_spectra(
        ctx.complex64("X1")[:n], ctx.complex64("X2")[:n]
    ).astype(np.complex64)


def range_detect_IFFT_CPU(ctx: KernelContext) -> None:
    """Back to the lag domain: corr = IFFT(corr_spec)."""
    n = ctx.int("n_samples")
    ctx.complex64("corr")[:n] = np.fft.ifft(
        ctx.complex64("corr_spec")[:n]
    ).astype(np.complex64)


def range_detect_MAX(ctx: KernelContext) -> None:
    """Peak search: write the detected lag index and peak magnitude."""
    n = ctx.int("n_samples")
    idx, peak, _lag_s = correlation.find_peak(
        ctx.complex64("corr")[:n], float(ctx.int("sampling_rate"))
    )
    ctx.set_int("index", idx)
    ctx.set_int("lag", idx)  # lag in samples (rate known separately)
    ctx.array("max_corr", np.float32)[0] = np.float32(peak)


# -- accelerator kernels (fft_accel.so) -----------------------------------------


def _accel_transform(ctx: KernelContext, src: str, dst: str, inverse: bool) -> None:
    """Drive the FFT device through the full DMA protocol of Fig. 6."""
    n = ctx.int("n_samples")
    device = ctx.device
    if device is None:
        raise RuntimeError(
            f"{ctx.node_name}: accelerator kernel invoked without a device"
        )
    device.load(ctx.complex64(src)[:n], inverse=inverse)
    device.start()
    device.step()  # hardware would raise DONE asynchronously
    while not device.poll():  # pragma: no cover - device completes in step()
        pass
    ctx.complex64(dst)[:n] = device.read_result()


def range_detect_FFT_0_ACCEL(ctx: KernelContext) -> None:
    _accel_transform(ctx, "rx", "X1", inverse=False)


def range_detect_FFT_1_ACCEL(ctx: KernelContext) -> None:
    _accel_transform(ctx, "lfm_waveform", "X2", inverse=False)


def range_detect_IFFT_ACCEL(ctx: KernelContext) -> None:
    _accel_transform(ctx, "corr_spec", "corr", inverse=True)


CPU_KERNELS = {
    "range_detect_setup": range_detect_setup,
    "range_detect_LFM": range_detect_LFM,
    "range_detect_FFT_0_CPU": range_detect_FFT_0_CPU,
    "range_detect_FFT_1_CPU": range_detect_FFT_1_CPU,
    "range_detect_MUL": range_detect_MUL,
    "range_detect_IFFT_CPU": range_detect_IFFT_CPU,
    "range_detect_MAX": range_detect_MAX,
}

ACCEL_KERNELS = {
    "range_detect_FFT_0_ACCEL": range_detect_FFT_0_ACCEL,
    "range_detect_FFT_1_ACCEL": range_detect_FFT_1_ACCEL,
    "range_detect_IFFT_ACCEL": range_detect_IFFT_ACCEL,
}


# -- task graph -------------------------------------------------------------------


def _fft_platforms(cpu_func: str, accel_func: str) -> list[PlatformBinding]:
    return [
        PlatformBinding(name="cpu", runfunc=cpu_func),
        PlatformBinding(
            name="fft", runfunc=accel_func, shared_object=ACCEL_SHARED_OBJECT
        ),
    ]


def build_graph() -> TaskGraph:
    """The 6-task range-detection archetype."""
    b = GraphBuilder(APP_NAME, SHARED_OBJECT)
    b.scalar("n_samples", N_SAMPLES)
    b.scalar("sampling_rate", SAMPLING_RATE)
    b.scalar("index", 0)
    b.scalar("lag", 0)
    b.buffer("lfm_waveform", _BUF, dtype="complex64")
    b.buffer("rx", _BUF, dtype="complex64")
    b.buffer("X1", _BUF, dtype="complex64")
    b.buffer("X2", _BUF, dtype="complex64")
    b.buffer("corr_spec", _BUF, dtype="complex64")
    b.buffer("corr", _BUF, dtype="complex64")
    b.buffer("max_corr", 4, dtype="float32")
    b.setup("range_detect_setup")

    b.node("LFM", args=["n_samples", "lfm_waveform"], cpu="range_detect_LFM")
    b.node(
        "FFT_0",
        args=["n_samples", "rx", "X1"],
        platforms=_fft_platforms(
            "range_detect_FFT_0_CPU", "range_detect_FFT_0_ACCEL"
        ),
    )
    b.node(
        "FFT_1",
        args=["n_samples", "lfm_waveform", "X2"],
        platforms=_fft_platforms(
            "range_detect_FFT_1_CPU", "range_detect_FFT_1_ACCEL"
        ),
        after=["LFM"],
    )
    b.node(
        "MUL",
        args=["n_samples", "X1", "X2", "corr_spec"],
        cpu="range_detect_MUL",
        after=["FFT_0", "FFT_1"],
    )
    b.node(
        "IFFT",
        args=["n_samples", "corr_spec", "corr"],
        platforms=_fft_platforms(
            "range_detect_IFFT_CPU", "range_detect_IFFT_ACCEL"
        ),
        after=["MUL"],
    )
    b.node(
        "MAX",
        args=["n_samples", "corr", "index", "max_corr", "lag", "sampling_rate"],
        cpu="range_detect_MAX",
        after=["IFFT"],
    )
    return b.build()


def verify_output(instance) -> bool:
    """Functional check: the detected lag equals the synthesized delay."""
    return instance.variables["index"].as_int() == TRUE_DELAY
