"""Signal-processing kernel primitives.

Pure NumPy functions (array in → array out) that the application kernel
shared-objects are built from.  Each module covers one block family from
the paper's application diagrams.
"""

from repro.apps.kernels import (
    channel,
    coding,
    correlation,
    crc,
    interleaver,
    lfm,
    matched_filter,
    modulation,
    pilots,
    scrambler,
)

__all__ = [
    "channel",
    "coding",
    "correlation",
    "crc",
    "interleaver",
    "lfm",
    "matched_filter",
    "modulation",
    "pilots",
    "scrambler",
]
