"""Fourier transforms: thin wrappers over NumPy's FFT (the FFTW analog).

Case Study 4's unoptimized kernels, the loop DFTs that the toolchain
recognizes and substitutes, are not here: they are written inline in
:mod:`repro.experiments.monolithic`.
"""

from __future__ import annotations

import numpy as np


def fft(x: np.ndarray) -> np.ndarray:
    """Optimized forward FFT (the FFTW-analog invocation)."""
    return np.fft.fft(np.asarray(x))


def ifft(x: np.ndarray) -> np.ndarray:
    """Optimized inverse FFT."""
    return np.fft.ifft(np.asarray(x))
