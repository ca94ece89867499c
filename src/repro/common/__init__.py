"""Shared infrastructure: errors, units, RNG management, logging, id pools."""

from repro.common.errors import (
    ReproError,
    ApplicationSpecError,
    SymbolResolutionError,
    SchedulingError,
    HardwareConfigError,
    MemoryError_,
    ToolchainError,
    EmulationError,
)
from repro.common.units import (
    US,
    MS,
    SEC,
    usec,
    msec,
    sec,
    to_usec,
    to_msec,
    to_sec,
    format_duration,
    KiB,
    MiB,
    format_bytes,
)
from repro.common.rng import SeedSequenceFactory, derive_seed
from repro.common.ids import IdAllocator, monotonic_names
from repro.common.log import get_logger

__all__ = [
    "ReproError",
    "ApplicationSpecError",
    "SymbolResolutionError",
    "SchedulingError",
    "HardwareConfigError",
    "MemoryError_",
    "ToolchainError",
    "EmulationError",
    "US",
    "MS",
    "SEC",
    "usec",
    "msec",
    "sec",
    "to_usec",
    "to_msec",
    "to_sec",
    "format_duration",
    "KiB",
    "MiB",
    "format_bytes",
    "SeedSequenceFactory",
    "derive_seed",
    "IdAllocator",
    "monotonic_names",
    "get_logger",
]
