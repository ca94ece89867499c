"""Linear-frequency-modulated (LFM) chirp waveforms for the radar apps."""

from __future__ import annotations

import numpy as np


#: chirp bandwidth B (Hz) and pulse duration T (s)
BANDWIDTH = 1.0e6
PULSE_DURATION = 1.0e-4


def lfm_chirp(n_samples: int, sampling_rate: float | None = None) -> np.ndarray:
    """Complex baseband LFM chirp: ``exp(j π (B/T) t²)`` for t ∈ [0, T).

    ``sampling_rate`` defaults to ``n_samples / PULSE_DURATION`` so the
    chirp exactly fills the sample window.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if sampling_rate is None:
        sampling_rate = n_samples / PULSE_DURATION
    t = np.arange(n_samples) / sampling_rate
    slope = BANDWIDTH / PULSE_DURATION
    return np.exp(1j * np.pi * slope * t * t)


def delayed_echo(
    waveform: np.ndarray,
    delay_samples: int,
    attenuation: float = 0.5,
    total_len: int | None = None,
) -> np.ndarray:
    """A received echo: the transmit waveform delayed and attenuated.

    Used by the range-detection setup kernels to synthesize an ``rx`` signal
    whose round-trip delay the application must recover.
    """
    wf = np.asarray(waveform)
    if total_len is None:
        total_len = len(wf)
    if not 0 <= delay_samples < total_len:
        raise ValueError(
            f"delay_samples {delay_samples} outside [0, {total_len})"
        )
    out = np.zeros(total_len, dtype=np.complex128)
    n_copy = min(len(wf), total_len - delay_samples)
    out[delay_samples : delay_samples + n_copy] = attenuation * wf[:n_copy]
    return out
