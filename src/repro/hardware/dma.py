"""DMA engine model — the AXI-Stream + udmabuf data path of Fig. 6.

On the ZCU102 the framework moves data between main memory (DDR) and an
accelerator's Block RAM through a DMA IP over AXI4-Stream, staged through a
contiguous kernel-space buffer exposed to user space by the udmabuf driver.
Two costs matter for the paper's findings: a fixed per-transfer setup
latency (driver call + descriptor programming) and a bandwidth-limited copy
time.  Their sum is what makes a 128-point FFT *slower* on the fabric
accelerator than on an A53 core (Fig. 9 discussion).

:class:`DmaBuffer` is the functional udmabuf analog used by the threaded
backend: a page-aligned staging region that source data is copied into
before the "device" reads it, and results are copied out of.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.common.errors import HardwareConfigError, MemoryError_


@dataclass(frozen=True)
class DMAModel:
    """Transfer-cost model: ``time = setup_latency + bytes / bandwidth``.

    ``setup_latency_us`` covers descriptor programming and the user-space
    driver round trip; ``bandwidth_bytes_per_us`` the streaming rate (e.g.
    300 B/us = 300 MB/s for a modestly clocked AXI DMA).
    """

    setup_latency_us: float
    bandwidth_bytes_per_us: float

    def __post_init__(self) -> None:
        if self.setup_latency_us < 0:
            raise HardwareConfigError("DMA setup latency must be >= 0")
        if self.bandwidth_bytes_per_us <= 0:
            raise HardwareConfigError("DMA bandwidth must be > 0")

    def transfer_time(self, nbytes: int) -> float:
        """One-way transfer time in µs for ``nbytes``."""
        if nbytes < 0:
            raise MemoryError_(f"negative transfer size: {nbytes}")
        return self.setup_latency_us + nbytes / self.bandwidth_bytes_per_us

    def round_trip_time(self, in_bytes: int, out_bytes: int) -> float:
        """DDR→device plus device→DDR transfer time."""
        return self.transfer_time(in_bytes) + self.transfer_time(out_bytes)


class DmaBuffer:
    """Functional udmabuf analog: a contiguous, device-visible staging buffer.

    The threaded backend copies task data into the buffer (DDR→buffer), the
    device model reads/writes it in place (buffer = its stream port), and
    results are copied back out.  Capacity violations raise, mirroring a
    real udmabuf allocation being too small for the requested transfer.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise MemoryError_("DMA buffer capacity must be positive")
        self.capacity = capacity
        self.bytes_in: int = 0
        self.transfer_count: int = 0

    @cached_property
    def _storage(self) -> np.ndarray:
        # Allocated by the first transfer: the virtual backend builds every
        # device for its timing model only and never stages a byte.
        return np.zeros(self.capacity, dtype=np.uint8)

    def write(self, data: np.ndarray) -> None:
        """Stage data into the buffer (the DDR→device copy)."""
        raw = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        if raw.nbytes > self.capacity:
            raise MemoryError_(
                f"transfer of {raw.nbytes} bytes exceeds DMA buffer capacity "
                f"of {self.capacity}"
            )
        self._storage[: raw.nbytes] = raw
        self.bytes_in = raw.nbytes
        self.transfer_count += 1

    def read(self, nbytes: int, dtype: str | np.dtype = np.uint8) -> np.ndarray:
        """Copy data out of the buffer (the device→DDR copy)."""
        if nbytes > self.capacity:
            raise MemoryError_(
                f"read of {nbytes} bytes exceeds DMA buffer capacity "
                f"of {self.capacity}"
            )
        self.transfer_count += 1
        out = self._storage[:nbytes].copy()
        return out.view(np.dtype(dtype))

    def view(self, nbytes: int, dtype: str | np.dtype = np.uint8) -> np.ndarray:
        """In-place typed view (the device side of the stream)."""
        if nbytes > self.capacity:
            raise MemoryError_(f"view of {nbytes} bytes exceeds capacity")
        return self._storage[:nbytes].view(np.dtype(dtype))
