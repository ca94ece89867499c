"""OFDM pilot insertion / removal for a 64-point symbol.

The 802.11a layout: 48 data subcarriers, 4 pilot tones (at logical
positions -21, -7, +7, +21 → indices 7, 21, 43, 57 of the 64-slot symbol
after DC shift), and the remainder (DC + band edges) nulled.
"""

from __future__ import annotations

import numpy as np

SYMBOL_SIZE = 64
PILOT_INDICES = np.array([7, 21, 43, 57])
PILOT_VALUES = np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j, -1.0 + 0j])
NULL_INDICES = np.array([0, 1, 2, 3, 4, 5, 32, 59, 60, 61, 62, 63])
DATA_INDICES = np.array(
    [i for i in range(SYMBOL_SIZE)
     if i not in set(PILOT_INDICES.tolist()) | set(NULL_INDICES.tolist())]
)
N_DATA = len(DATA_INDICES)  # 48


def insert_pilots(data_symbols: np.ndarray) -> np.ndarray:
    """Place 48 data symbols into a 64-slot OFDM symbol with pilots."""
    sym = np.asarray(data_symbols)
    if sym.shape != (N_DATA,):
        raise ValueError(f"expected {N_DATA} data symbols, got {sym.shape}")
    frame = np.zeros(SYMBOL_SIZE, dtype=np.complex128)
    frame[DATA_INDICES] = sym
    frame[PILOT_INDICES] = PILOT_VALUES
    return frame


def remove_pilots(frame: np.ndarray) -> np.ndarray:
    """Extract the 48 data symbols from a 64-slot OFDM symbol."""
    full = np.asarray(frame)
    if full.shape != (SYMBOL_SIZE,):
        raise ValueError(f"expected a {SYMBOL_SIZE}-slot symbol, got {full.shape}")
    return full[DATA_INDICES].copy()
