"""Time units.

The framework's canonical time unit is the **microsecond**, stored as a
``float``.  The paper reports scheduling overheads of a few microseconds and
workload makespans of tens of seconds, so microseconds keep both ends of the
range well inside float64 precision (2^53 µs ≈ 285 years).

All public runtime APIs accept and return microseconds unless a name says
otherwise (``*_ms``, ``*_sec``).
"""

from __future__ import annotations

# -- canonical multipliers (value of one unit, expressed in microseconds) --
MS: float = 1_000.0
SEC: float = 1_000_000.0


def to_msec(value: float) -> float:
    """Canonical time → milliseconds."""
    return float(value) / MS


def to_sec(value: float) -> float:
    """Canonical time → seconds."""
    return float(value) / SEC
