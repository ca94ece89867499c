"""CRC-32 (IEEE 802.3 polynomial) over bit streams.

Implemented directly over 0/1 bit arrays since the WiFi chains carry
payloads as bits; matches binascii.crc32 for byte-aligned inputs (verified
in the tests).
"""

from __future__ import annotations

import numpy as np

_POLY = 0xEDB88320  # reflected 0x04C11DB7


def crc32_bits(bits: np.ndarray) -> int:
    """CRC-32 of a bit stream (LSB-first within each byte, per 802.3)."""
    data = np.asarray(bits, dtype=np.uint8)
    if data.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if np.any(data > 1):
        raise ValueError("bits must be 0/1 valued")
    crc = 0xFFFFFFFF
    for bit in data:
        crc ^= int(bit)
        crc = (crc >> 1) ^ (_POLY if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF
