"""Pulse-Doppler radar application (Fig. 8) — 770 tasks at default size.

Per received pulse, a five-task correlator performs range compression
(pulse FFT, reference FFT, conjugate, vector multiply, IFFT); a realign
task transposes the pulse-major matrix to range-gate-major; per processed
range gate, an FFT across slow time plus an fftshift resolve Doppler; and a
final peak search reports the target's range gate and Doppler bin.

Task count (paper Table I: 770) with the default geometry of 128 pulses ×
128 samples and the central 64 range gates Doppler-processed::

    5 x 128 (correlators) + 1 (realign) + 2 x 64 (Doppler) + 1 (max) = 770

Per-pulse and per-gate tasks share kernel symbols; each task's first
argument is an index scalar identifying its pulse/gate, mirroring the C
framework passing per-node argument pointers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.appmodel.builder import GraphBuilder
from repro.appmodel.dag import PlatformBinding, TaskGraph
from repro.appmodel.library import KernelContext
from repro.apps.kernels import lfm

APP_NAME = "pulse_doppler"
SHARED_OBJECT = "pulse_doppler.so"
ACCEL_SHARED_OBJECT = "fft_accel.so"


@dataclass(frozen=True)
class PulseDopplerGeometry:
    """Problem size; the default reproduces the paper's 770-task graph."""

    n_pulses: int = 128
    n_samples: int = 128
    n_gates: int = 64     # range gates that get Doppler processing
    gate_offset: int = 32  # first processed gate (central window)

    def __post_init__(self) -> None:
        if min(self.n_pulses, self.n_samples, self.n_gates) <= 0:
            raise ValueError("geometry dimensions must be positive")
        if self.gate_offset + self.n_gates > self.n_samples:
            raise ValueError("processed gate window exceeds sample count")

    @property
    def task_count(self) -> int:
        return 5 * self.n_pulses + 2 * self.n_gates + 2


DEFAULT_GEOMETRY = PulseDopplerGeometry()

# Synthetic target injected by setup: placed mid-window so it stays inside
# the processed gates at any geometry, with a Doppler frequency scaled to
# the burst length.
TARGET_SNR_DB = 15.0
SETUP_SEED = 0xD099


def target_gate(geometry: PulseDopplerGeometry) -> int:
    """Range gate of the synthesized target (center of the window)."""
    return geometry.gate_offset + geometry.n_gates // 2


def target_doppler_cycles(geometry: PulseDopplerGeometry) -> int:
    """Doppler frequency of the target, in cycles per burst."""
    return max(1, geometry.n_pulses // 12)


# -- kernels ---------------------------------------------------------------------


def _geometry(ctx: KernelContext) -> tuple[int, int, int, int]:
    return (
        ctx.int("n_pulses"),
        ctx.int("n_samples"),
        ctx.int("n_gates"),
        ctx.int("gate_offset"),
    )


def _row(buf: np.ndarray, row: int, width: int) -> np.ndarray:
    return buf[row * width : (row + 1) * width]


def pd_setup(ctx: KernelContext) -> None:
    """Synthesize the pulse burst: delayed echoes with Doppler rotation."""
    m, n, g, off = _geometry(ctx)
    geometry = PulseDopplerGeometry(m, n, g, off)
    ref = lfm.lfm_chirp(n)
    ctx.complex64("ref")[:n] = ref.astype(np.complex64)
    rng = np.random.default_rng(SETUP_SEED)
    pulses = ctx.complex64("pulses")
    echo = lfm.delayed_echo(ref, target_gate(geometry), attenuation=0.7, total_len=n)
    cycles = target_doppler_cycles(geometry)
    noise_scale = 0.7 / (10.0 ** (TARGET_SNR_DB / 20.0))
    for p in range(m):
        phase = np.exp(2j * np.pi * cycles * p / m)
        noise = noise_scale * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2.0)
        _row(pulses, p, n)[:] = (echo * phase + noise).astype(np.complex64)


def pd_pulse_FFT_CPU(ctx: KernelContext) -> None:
    """Fast-time FFT of one received pulse."""
    p = ctx.arg(0).as_int()
    m, n, _g, _off = _geometry(ctx)
    del m
    src = _row(ctx.complex64("pulses"), p, n)
    _row(ctx.complex64("pulse_spec"), p, n)[:] = np.fft.fft(src).astype(np.complex64)


def pd_ref_FFT_CPU(ctx: KernelContext) -> None:
    """Reference-waveform FFT for one correlator lane."""
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    ref = ctx.complex64("ref")[:n]
    _row(ctx.complex64("ref_spec"), p, n)[:] = np.fft.fft(ref).astype(np.complex64)


def pd_conjugate(ctx: KernelContext) -> None:
    """In-place conjugate of this lane's reference spectrum."""
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    lane = _row(ctx.complex64("ref_spec"), p, n)
    np.conj(lane, out=lane)


def pd_vector_multiply(ctx: KernelContext) -> None:
    """Correlation spectrum for one pulse."""
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    spec = _row(ctx.complex64("pulse_spec"), p, n)
    refc = _row(ctx.complex64("ref_spec"), p, n)
    _row(ctx.complex64("corr_spec"), p, n)[:] = spec * refc


def pd_pulse_IFFT_CPU(ctx: KernelContext) -> None:
    """Range-compressed pulse (lag domain)."""
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    src = _row(ctx.complex64("corr_spec"), p, n)
    _row(ctx.complex64("compressed"), p, n)[:] = np.fft.ifft(src).astype(np.complex64)


def pd_realign_matrix(ctx: KernelContext) -> None:
    """Transpose pulse-major compressed data to range-gate-major."""
    m, n, _g, _off = _geometry(ctx)
    compressed = ctx.complex64("compressed")[: m * n].reshape(m, n)
    ctx.complex64("realigned")[: n * m] = np.ascontiguousarray(
        compressed.T
    ).reshape(-1)


def pd_doppler_FFT_CPU(ctx: KernelContext) -> None:
    """Slow-time FFT across pulses for one processed range gate."""
    g = ctx.arg(0).as_int()
    m, _n, _gates, off = _geometry(ctx)
    gate = off + g
    src = _row(ctx.complex64("realigned"), gate, m)
    _row(ctx.complex64("doppler"), g, m)[:] = np.fft.fft(src).astype(np.complex64)


def pd_fft_shift(ctx: KernelContext) -> None:
    """Center zero Doppler for one gate's spectrum."""
    g = ctx.arg(0).as_int()
    m, _n, _gates, _off = _geometry(ctx)
    lane = _row(ctx.complex64("doppler"), g, m)
    lane[:] = np.fft.fftshift(lane)


def pd_find_max(ctx: KernelContext) -> None:
    """Peak of the range-Doppler map → range gate + Doppler bin."""
    m, _n, gates, off = _geometry(ctx)
    mat = np.abs(ctx.complex64("doppler")[: gates * m].reshape(gates, m))
    g, d = np.unravel_index(int(np.argmax(mat)), mat.shape)
    ctx.set_int("range_gate", off + int(g))
    ctx.set_int("doppler_bin", int(d))
    ctx.array("peak_mag", np.float32)[0] = np.float32(mat[g, d])


# -- accelerator kernels -----------------------------------------------------------


def _accel_lane_transform(
    ctx: KernelContext, src_name: str, dst_name: str, lane: int, width: int,
    inverse: bool,
) -> None:
    device = ctx.device
    if device is None:
        raise RuntimeError(f"{ctx.node_name}: accelerator kernel without a device")
    device.load(_row(ctx.complex64(src_name), lane, width), inverse=inverse)
    device.start()
    device.step()
    _row(ctx.complex64(dst_name), lane, width)[:] = device.read_result()


def pd_pulse_FFT_ACCEL(ctx: KernelContext) -> None:
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    _accel_lane_transform(ctx, "pulses", "pulse_spec", p, n, inverse=False)


def pd_ref_FFT_ACCEL(ctx: KernelContext) -> None:
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    device = ctx.device
    if device is None:
        raise RuntimeError(f"{ctx.node_name}: accelerator kernel without a device")
    device.load(ctx.complex64("ref")[:n], inverse=False)
    device.start()
    device.step()
    _row(ctx.complex64("ref_spec"), p, n)[:] = device.read_result()


def pd_pulse_IFFT_ACCEL(ctx: KernelContext) -> None:
    p = ctx.arg(0).as_int()
    _m, n, _g, _off = _geometry(ctx)
    _accel_lane_transform(ctx, "corr_spec", "compressed", p, n, inverse=True)


def pd_doppler_FFT_ACCEL(ctx: KernelContext) -> None:
    g = ctx.arg(0).as_int()
    m, _n, _gates, off = _geometry(ctx)
    device = ctx.device
    if device is None:
        raise RuntimeError(f"{ctx.node_name}: accelerator kernel without a device")
    device.load(_row(ctx.complex64("realigned"), off + g, m), inverse=False)
    device.start()
    device.step()
    _row(ctx.complex64("doppler"), g, m)[:] = device.read_result()


CPU_KERNELS = {
    "pd_setup": pd_setup,
    "pd_pulse_FFT_CPU": pd_pulse_FFT_CPU,
    "pd_ref_FFT_CPU": pd_ref_FFT_CPU,
    "pd_conjugate": pd_conjugate,
    "pd_vector_multiply": pd_vector_multiply,
    "pd_pulse_IFFT_CPU": pd_pulse_IFFT_CPU,
    "pd_realign_matrix": pd_realign_matrix,
    "pd_doppler_FFT_CPU": pd_doppler_FFT_CPU,
    "pd_fft_shift": pd_fft_shift,
    "pd_find_max": pd_find_max,
}

ACCEL_KERNELS = {
    "pd_pulse_FFT_ACCEL": pd_pulse_FFT_ACCEL,
    "pd_ref_FFT_ACCEL": pd_ref_FFT_ACCEL,
    "pd_pulse_IFFT_ACCEL": pd_pulse_IFFT_ACCEL,
    "pd_doppler_FFT_ACCEL": pd_doppler_FFT_ACCEL,
}


# -- task graph --------------------------------------------------------------------


def _fft_node(cpu_func: str, accel_func: str) -> list[PlatformBinding]:
    return [
        PlatformBinding(name="cpu", runfunc=cpu_func),
        PlatformBinding(
            name="fft", runfunc=accel_func, shared_object=ACCEL_SHARED_OBJECT
        ),
    ]


def build_graph(geometry: PulseDopplerGeometry = DEFAULT_GEOMETRY) -> TaskGraph:
    """The pulse-Doppler archetype (770 tasks at the default geometry)."""
    m, n = geometry.n_pulses, geometry.n_samples
    gates, off = geometry.n_gates, geometry.gate_offset
    b = GraphBuilder(APP_NAME, SHARED_OBJECT)
    b.scalar("n_pulses", m)
    b.scalar("n_samples", n)
    b.scalar("n_gates", gates)
    b.scalar("gate_offset", off)
    b.scalar("range_gate", 0)
    b.scalar("doppler_bin", 0)
    b.buffer("ref", n * 8, dtype="complex64")
    b.buffer("pulses", m * n * 8, dtype="complex64")
    b.buffer("pulse_spec", m * n * 8, dtype="complex64")
    b.buffer("ref_spec", m * n * 8, dtype="complex64")
    b.buffer("corr_spec", m * n * 8, dtype="complex64")
    b.buffer("compressed", m * n * 8, dtype="complex64")
    b.buffer("realigned", n * m * 8, dtype="complex64")
    b.buffer("doppler", gates * m * 8, dtype="complex64")
    b.buffer("peak_mag", 4, dtype="float32")
    for k in range(max(m, gates)):
        b.scalar(f"idx_{k:03d}", k)
    b.setup("pd_setup")

    geom_args = ["n_pulses", "n_samples", "n_gates", "gate_offset"]
    for p in range(m):
        idx = f"idx_{p:03d}"
        b.node(
            f"P{p:03d}_FFT",
            args=[idx, *geom_args, "pulses", "pulse_spec"],
            platforms=_fft_node("pd_pulse_FFT_CPU", "pd_pulse_FFT_ACCEL"),
        )
        b.node(
            f"P{p:03d}_RFFT",
            args=[idx, *geom_args, "ref", "ref_spec"],
            platforms=_fft_node("pd_ref_FFT_CPU", "pd_ref_FFT_ACCEL"),
        )
        b.node(
            f"P{p:03d}_CONJ",
            args=[idx, *geom_args, "ref_spec"],
            cpu="pd_conjugate",
            after=[f"P{p:03d}_RFFT"],
        )
        b.node(
            f"P{p:03d}_VMUL",
            args=[idx, *geom_args, "pulse_spec", "ref_spec", "corr_spec"],
            cpu="pd_vector_multiply",
            after=[f"P{p:03d}_FFT", f"P{p:03d}_CONJ"],
        )
        b.node(
            f"P{p:03d}_IFFT",
            args=[idx, *geom_args, "corr_spec", "compressed"],
            platforms=_fft_node("pd_pulse_IFFT_CPU", "pd_pulse_IFFT_ACCEL"),
            after=[f"P{p:03d}_VMUL"],
        )
    b.node(
        "REALIGN",
        args=[*geom_args, "compressed", "realigned"],
        cpu="pd_realign_matrix",
        after=[f"P{p:03d}_IFFT" for p in range(m)],
    )
    for g in range(gates):
        idx = f"idx_{g:03d}"
        b.node(
            f"G{g:03d}_DFFT",
            args=[idx, *geom_args, "realigned", "doppler"],
            platforms=_fft_node("pd_doppler_FFT_CPU", "pd_doppler_FFT_ACCEL"),
            after=["REALIGN"],
        )
        b.node(
            f"G{g:03d}_SHIFT",
            args=[idx, *geom_args, "doppler"],
            cpu="pd_fft_shift",
            after=[f"G{g:03d}_DFFT"],
        )
    b.node(
        "MAX",
        args=[*geom_args, "doppler", "range_gate", "doppler_bin", "peak_mag"],
        cpu="pd_find_max",
        after=[f"G{g:03d}_SHIFT" for g in range(gates)],
    )
    return b.build()


def expected_peak(geometry: PulseDopplerGeometry = DEFAULT_GEOMETRY) -> tuple[int, int]:
    """(range_gate, doppler_bin) the synthesized target should produce."""
    cycles = target_doppler_cycles(geometry)
    shifted_bin = (cycles + geometry.n_pulses // 2) % geometry.n_pulses
    return target_gate(geometry), shifted_bin


def verify_output(instance) -> bool:
    """Functional check: the detected peak matches the synthesized target."""
    geometry = PulseDopplerGeometry(
        n_pulses=instance.variables["n_pulses"].as_int(),
        n_samples=instance.variables["n_samples"].as_int(),
        n_gates=instance.variables["n_gates"].as_int(),
        gate_offset=instance.variables["gate_offset"].as_int(),
    )
    gate, bin_ = expected_peak(geometry)
    return (
        instance.variables["range_gate"].as_int() == gate
        and instance.variables["doppler_bin"].as_int() == bin_
    )
