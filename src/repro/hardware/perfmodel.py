"""Calibrated performance models for the virtual-time backend.

Two models live here:

* :class:`PerformanceModel` — service time of each kernel (``runfunc``
  symbol) on each PE type.  CPU times are stored as microseconds on the
  *reference core* (ZCU102 Cortex-A53) and scaled by a PE type's ``speed``;
  accelerator times come from the device's DMA + compute model using the
  kernel's registered transform size.
* :class:`SchedulerCostModel` — per-invocation scheduling overhead as a
  function of ready-queue length and PE count, reflecting the policies'
  computational complexity (paper: FRFS ∝ #PEs, MET O(n), EFT O(n²)).

Calibration
-----------
The CPU kernel-time table is calibrated so the standalone application times
of Table I land near the paper's values (RD ≈ 0.32 ms, PD ≈ 5.6 ms, WiFi TX
≈ 0.13 ms, WiFi RX ≈ 2.22 ms on a 3-core + 2-FFT configuration under FRFS),
and so the 128-point FFT is faster on an A53 core than on the fabric FFT
accelerator once DMA overheads are counted (the paper's Fig. 9 discussion),
while the 256-point radar FFTs still benefit from the accelerator.
EXPERIMENTS.md records paper-vs-measured for every calibrated figure.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import HardwareConfigError
from repro.hardware.accelerator import FFTAcceleratorDevice
from repro.hardware.pe import PEType

# -- CPU kernel-time table (µs on the reference Cortex-A53) -------------------
#
# Derivation notes: Table I gives aggregate app times; per-kernel splits are
# chosen so each app's critical path plus per-task runtime overhead matches,
# with FFT times following n·log2(n) scaling between the 64/128/256-point
# sizes used by the three applications, and the Viterbi decoder dominating
# WiFi RX (as it does on real A53 silicon).
REFERENCE_KERNEL_TIMES_US: dict[str, float] = {
    # range detection (256-point complex chirp processing)
    "range_detect_LFM": 38.0,
    "range_detect_FFT_0_CPU": 98.0,
    "range_detect_FFT_1_CPU": 98.0,
    "range_detect_MUL": 36.0,
    "range_detect_IFFT_CPU": 98.0,
    "range_detect_MAX": 22.0,
    # pulse Doppler (128 pulses x 128 samples, 64 Doppler bins)
    "pd_ref_FFT_CPU": 19.0,
    "pd_pulse_FFT_CPU": 19.0,
    "pd_conjugate": 6.0,
    "pd_vector_multiply": 9.0,
    "pd_pulse_IFFT_CPU": 19.0,
    "pd_realign_matrix": 28.0,
    "pd_doppler_FFT_CPU": 19.0,
    "pd_fft_shift": 5.5,
    "pd_find_max": 13.0,
    # WiFi TX (64-bit frame, 64-point OFDM symbol)
    "wifi_scrambler": 12.0,
    "wifi_encoder": 20.0,
    "wifi_interleaver": 14.0,
    "wifi_qpsk_mod": 16.0,
    "wifi_pilot_insert": 12.0,
    "wifi_ifft_CPU": 15.0,
    "wifi_crc": 10.0,
    # WiFi RX
    "wifi_match_filter": 45.0,
    "wifi_payload_extract": 12.0,
    "wifi_fft_CPU": 11.0,
    "wifi_pilot_remove": 8.0,
    "wifi_qpsk_demod": 14.0,
    "wifi_deinterleaver": 10.0,
    "wifi_viterbi_decode": 2000.0,
    "wifi_descrambler": 8.0,
    "wifi_crc_check": 7.0,
}

# Accelerator-bound kernels: runfunc -> FFT size (points). The device model
# turns the size into DMA + compute time.
ACCEL_FFT_POINTS: dict[str, int] = {
    "range_detect_FFT_0_ACCEL": 256,
    "range_detect_FFT_1_ACCEL": 256,
    "range_detect_IFFT_ACCEL": 256,
    "pd_ref_FFT_ACCEL": 128,
    "pd_pulse_FFT_ACCEL": 128,
    "pd_pulse_IFFT_ACCEL": 128,
    "pd_doppler_FFT_ACCEL": 128,
    "wifi_ifft_ACCEL": 64,
    "wifi_fft_ACCEL": 64,
}


class PerformanceModel:
    """Kernel service times per PE type for the virtual backend."""

    def __init__(
        self,
        cpu_times: dict[str, float] | None = None,
        accel_points: dict[str, int] | None = None,
        *,
        default_cpu_time: float = 25.0,
        jitter_sigma: float = 0.05,
    ) -> None:
        self._cpu_times = dict(
            REFERENCE_KERNEL_TIMES_US if cpu_times is None else cpu_times
        )
        self._accel_points = dict(
            ACCEL_FFT_POINTS if accel_points is None else accel_points
        )
        if default_cpu_time <= 0:
            raise HardwareConfigError("default_cpu_time must be positive")
        self.default_cpu_time = default_cpu_time
        #: lognormal sigma for per-execution multiplicative jitter (models
        #: caches/branches/DRAM variability that produce the Fig. 9a boxes).
        self.jitter_sigma = jitter_sigma

    # -- registration -----------------------------------------------------------

    def set_time(self, runfunc: str, reference_us: float) -> None:
        """Register/override a kernel's reference-core time."""
        if reference_us <= 0:
            raise HardwareConfigError(f"{runfunc}: time must be positive")
        self._cpu_times[runfunc] = float(reference_us)

    def set_accel_job(self, runfunc: str, n_points: int) -> None:
        """Register an accelerator-bound kernel's transform size."""
        if n_points <= 0:
            raise HardwareConfigError(f"{runfunc}: n_points must be positive")
        self._accel_points[runfunc] = int(n_points)

    def has_kernel(self, runfunc: str) -> bool:
        return runfunc in self._cpu_times or runfunc in self._accel_points

    # -- queries -----------------------------------------------------------------

    def cpu_time(self, runfunc: str, pe_type: PEType) -> float:
        """Service time of a kernel on a CPU-type PE (speed-scaled)."""
        base = self._cpu_times.get(runfunc, self.default_cpu_time)
        return base / pe_type.speed

    def accel_compute_time(self, runfunc: str, device: FFTAcceleratorDevice) -> float:
        """Device compute time (no DMA) for an accelerator-bound kernel."""
        return device.compute_time(self.accel_points(runfunc))

    def accel_transfer_bytes(self, runfunc: str) -> int:
        """One-way DMA payload for an accelerator-bound kernel."""
        return self.accel_points(runfunc) * 8  # complex64

    def accel_points(self, runfunc: str) -> int:
        n = self._accel_points.get(runfunc)
        if n is None:
            raise HardwareConfigError(
                f"kernel {runfunc!r} has no registered accelerator job size"
            )
        return n

    def service_time(
        self,
        runfunc: str,
        pe_type: PEType,
        device: FFTAcceleratorDevice | None = None,
    ) -> float:
        """Total PE-side service time (accelerators include DMA round trip)."""
        if pe_type.is_accelerator:
            if device is None:
                raise HardwareConfigError(
                    f"accelerator service time for {runfunc!r} needs a device"
                )
            return device.job_time(self.accel_points(runfunc))
        return self.cpu_time(runfunc, pe_type)

    def jitter(self, rng: np.random.Generator) -> float:
        """A multiplicative jitter factor (mean ≈ 1)."""
        if self.jitter_sigma <= 0:
            return 1.0
        return float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))


# -- scheduling-overhead model -------------------------------------------------


class SchedulerCostModel:
    """Per-invocation scheduling cost charged on the management core.

    The paper accumulates, per scheduler run: monitoring completion status,
    ready-queue update, the policy itself, and communicating selected tasks
    to resource managers.  We split those into:

    * ``policy_cost(policy, ready_len, n_pes)`` — the heuristic's own time,
    * ``monitor_cost_per_completion`` — handler status read + ready update,
    * ``dispatch_cost_per_task`` — handler hand-off of one selected task,
    * ``base_cost`` — fixed loop overhead per invocation.

    :meth:`pass_cost` prices a WM pass of :meth:`invocations` invocations.

    Defaults reproduce Fig. 10b's decades at 5 PEs: FRFS ≈ 2.5 µs flat,
    MET linear in ready length, EFT quadratic.
    """

    DEFAULT_POLICY_COEFFS: dict[str, tuple[float, float, int]] = {
        # policy -> (c0, coeff, power): cost = c0 + coeff * ready^power * n_pes
        #
        # Calibrated against Fig. 10b at 5 PEs: FRFS flat (complexity
        # proportional to PE count only); MET linear in ready length with a
        # coefficient small enough that low injection rates drain each
        # pulse-Doppler ready burst without a feedback spiral; EFT quadratic
        # with a coefficient large enough that the spiral starts at the
        # lowest evaluated rate, as in the paper.
        "frfs": (0.0, 0.30, 0),
        "random": (0.0, 0.24, 0),
        "met": (0.3, 0.008, 1),
        "eft": (0.8, 1.2e-4, 2),
        "heft": (1.0, 1.5e-4, 2),
        "met_power": (0.4, 0.009, 1),
        "frfs_reserve": (0.2, 0.32, 0),
        "eft_reserve": (0.8, 1.2e-4, 2),
        # Lookahead policies: cprank is HEFT under its older name and
        # pays the same sort+placement; rollout's bounded
        # forward simulations cost more per pass but are capped by its
        # scan_limit, so the model is linear rather than quadratic.
        "cprank": (1.0, 1.5e-4, 2),
        "rollout": (1.2, 0.012, 1),
    }

    def __init__(
        self,
        policy_coeffs: dict[str, tuple[float, float, int]] | None = None,
        *,
        base_cost: float = 0.4,
        monitor_cost_per_completion: float = 0.25,
        dispatch_cost_per_task: float = 0.8,
        default_coeffs: tuple[float, float, int] = (0.5, 0.15, 1),
    ) -> None:
        self._coeffs = dict(
            self.DEFAULT_POLICY_COEFFS if policy_coeffs is None else policy_coeffs
        )
        self.base_cost = base_cost
        self.monitor_cost_per_completion = monitor_cost_per_completion
        self.dispatch_cost_per_task = dispatch_cost_per_task
        self.default_coeffs = default_coeffs

    def set_policy(self, name: str, c0: float, coeff: float, power: int) -> None:
        self._coeffs[name] = (c0, coeff, power)

    def policy_cost(self, policy: str, ready_len: int, n_pes: int) -> float:
        """The heuristic's compute time for one invocation (reference core)."""
        coeffs = self._coeffs.get(policy)
        if coeffs is None and "+" in policy:
            # Policy variants (e.g. "frfs+edf") cost like their base policy;
            # the EDF tie-break is a ready-list sort, dominated by it.
            coeffs = self._coeffs.get(policy.partition("+")[0])
        c0, coeff, power = coeffs if coeffs is not None else self.default_coeffs
        if power == 0:
            scale = 1.0
        elif power == 1:
            scale = float(ready_len)
        else:
            scale = float(ready_len) ** power
        return c0 + coeff * scale * n_pes

    def invocations(self, policy, completions: int) -> int:
        """How many scheduler invocations one WM pass stands for.

        ``policy`` is the session's scheduler (read duck-typed: ``name``,
        ``uses_reservation``).  The paper's runtime has no reservation
        queues, so "a scheduling algorithm incurs this overhead every time
        a task completes its execution": a pass that absorbed k completions
        stands for max(1, k) back-to-back invocations.  A self-serving
        (reservation) policy's resource managers pull their next task from
        their PE work queues, so its pass is one invocation — the overhead
        reduction the paper's future-work section is after.  This is the
        one place the rule lives; a subclass overrides it to model another.
        """
        if policy.uses_reservation:
            return 1
        return max(1, completions)

    def pass_cost(
        self,
        policy,
        ready_len: int,
        n_pes: int,
        completions: int,
        dispatched: int,
    ) -> tuple[float, int]:
        """Total overhead of one WM pass and the invocation count it models.

        Each of the :meth:`invocations` pays the base loop and the policy's
        compute cost; the pass pays the monitor step once per completion
        and the hand-off once per dispatched task.  Returns ``(total_us,
        invocations)``; the invocation count is what the overhead statistic
        averages over (Fig. 10b reports *per-invocation* overhead).
        """
        invocations = self.invocations(policy, completions)
        per_invocation = self.base_cost + self.policy_cost(
            policy.name, ready_len, n_pes
        )
        total = (
            per_invocation * invocations
            + self.monitor_cost_per_completion * completions
            + self.dispatch_cost_per_task * dispatched
        )
        return total, invocations
