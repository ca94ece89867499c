"""Execution backends: virtual-time DES and real-thread execution."""

from repro.common.errors import ReproError
from repro.runtime.backends.base import (
    EmulationSession,
    ExecutionBackend,
    PerfModelOracle,
)
from repro.runtime.backends.virtual import VirtualBackend
from repro.runtime.backends.threaded import ThreadedBackend

_BACKENDS: dict[str, type[ExecutionBackend]] = {
    "virtual": VirtualBackend,
    "threaded": ThreadedBackend,
}


def backend_by_name(name: str) -> ExecutionBackend:
    """A fresh default-configured backend for a ``--backend`` / cell name."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ReproError(
            f"unknown backend {name!r} ({' | '.join(_BACKENDS)})"
        ) from None


__all__ = [
    "EmulationSession",
    "ExecutionBackend",
    "PerfModelOracle",
    "VirtualBackend",
    "ThreadedBackend",
    "backend_by_name",
]
