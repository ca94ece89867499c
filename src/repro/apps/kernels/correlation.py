"""Frequency-domain correlation blocks (Figs. 2 and 8).

Range detection and pulse Doppler both correlate a received signal against
a reference by multiplying one spectrum with the complex conjugate of the
other and inverse-transforming.
"""

from __future__ import annotations

import numpy as np


def conjugate(x: np.ndarray) -> np.ndarray:
    """Element-wise complex conjugate."""
    return np.conj(np.asarray(x))


def vector_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise product (spectra must have equal length)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a * b


def correlate_spectra(rx_spectrum: np.ndarray, ref_spectrum: np.ndarray) -> np.ndarray:
    """Cross-correlation spectrum: ``RX * conj(REF)``."""
    return vector_multiply(rx_spectrum, conjugate(ref_spectrum))


def find_peak(corr: np.ndarray, sampling_rate: float = 1.0) -> tuple[int, float, float]:
    """Peak search: returns ``(index, peak_magnitude, lag_seconds)``."""
    mag = np.abs(np.asarray(corr))
    idx = int(np.argmax(mag))
    return idx, float(mag[idx]), idx / sampling_rate
