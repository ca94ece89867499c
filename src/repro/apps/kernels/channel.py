"""AWGN channel model (the block between TX and RX in Fig. 7)."""

from __future__ import annotations

import numpy as np


def awgn(
    signal: np.ndarray,
    snr_db: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Add complex white Gaussian noise at the given SNR.

    Noise power is set relative to the *measured* signal power, so the SNR
    is exact for the given realization.
    """
    x = np.asarray(signal, dtype=np.complex128)
    if rng is None:
        rng = np.random.default_rng()
    power = float(np.mean(np.abs(x) ** 2))
    if power == 0.0:
        return x.copy()
    noise_power = power / (10.0 ** (snr_db / 10.0))
    scale = np.sqrt(noise_power / 2.0)
    noise = scale * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))
    return x + noise
