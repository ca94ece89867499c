"""Matched filtering and payload extraction (WiFi RX front end, Fig. 7)."""

from __future__ import annotations

import numpy as np


#: seed of the preamble's bits, so TX and RX agree without sharing state
PREAMBLE_SEED = 0x5EED


def preamble_sequence(length: int) -> np.ndarray:
    """The known synchronization preamble: a fixed pseudo-random QPSK burst."""
    rng = np.random.default_rng(PREAMBLE_SEED)
    bits = rng.integers(0, 2, size=2 * length)
    i = 1.0 - 2.0 * bits[0::2]
    q = 1.0 - 2.0 * bits[1::2]
    return ((i + 1j * q) / np.sqrt(2.0)).astype(np.complex128)


def matched_filter(rx: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Correlate the received stream against the known template.

    Output index k holds the correlation of ``rx[k : k+len(template)]`` with
    the template (valid-mode sliding correlation).
    """
    rx = np.asarray(rx, dtype=np.complex128)
    t = np.conj(np.asarray(template, dtype=np.complex128))[::-1]
    if t.size > rx.size:
        raise ValueError("template longer than received stream")
    return np.convolve(rx, t, mode="valid")


def detect_frame_start(rx: np.ndarray, template: np.ndarray) -> int:
    """Index where the preamble begins (peak of the matched filter)."""
    corr = matched_filter(rx, template)
    return int(np.argmax(np.abs(corr)))


def extract_payload(rx: np.ndarray, frame_start: int, preamble_len: int,
                    payload_len: int) -> np.ndarray:
    """Slice the payload samples following the detected preamble."""
    begin = frame_start + preamble_len
    end = begin + payload_len
    rx = np.asarray(rx)
    if end > rx.size:
        raise ValueError(
            f"payload [{begin}:{end}] runs past the received stream "
            f"of {rx.size} samples"
        )
    return rx[begin:end].copy()
