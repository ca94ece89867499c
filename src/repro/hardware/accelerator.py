"""FFT accelerator device model (programmable-fabric IP on the ZCU102).

The device has a bounded Block RAM, a start/busy/done control interface,
and a compute-time model.  Both backends use it:

* the **threaded** backend drives the functional path — stage input through
  the DMA buffer, ``start()``, poll ``state`` until DONE, read results —
  and the device really computes the FFT of whatever is in its BRAM;
* the **virtual** backend uses only :meth:`compute_time` and the DMA model
  to charge virtual time for the same protocol steps.

Following the paper's accelerator-integration contract, a user integrates a
new device by implementing exactly this surface: data-transfer blocks plus
programming logic to start the device and monitor completion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.common.errors import EmulationError, MemoryError_
from repro.hardware.dma import DMAModel, DmaBuffer


class AcceleratorState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    DONE = "done"


@dataclass(frozen=True)
class FFTTimingModel:
    """Compute-time model for the fabric FFT: ``setup + n*log2(n)*per_stage``.

    A streaming radix-2 pipeline processes n log n butterfly operations;
    ``setup_us`` covers configuration-register writes and pipeline fill.
    """

    setup_us: float = 4.0
    per_point_stage_us: float = 0.004

    def compute_time(self, n_points: int) -> float:
        if n_points <= 0:
            raise MemoryError_(f"FFT size must be positive, got {n_points}")
        # ceil(log2(n)) in integer arithmetic (no numpy scalar dispatch)
        stages = max(1, (n_points - 1).bit_length())
        return self.setup_us + n_points * stages * self.per_point_stage_us


#: bytes of one complex64 sample, the device's data type
COMPLEX64_BYTES = 8


class FFTAcceleratorDevice:
    """One FFT accelerator instance with its DMA engine and BRAM.

    Every device is the ZCU102 overlay's: 32 KiB of Block RAM, so a
    transform of at most ``max_points`` = 32 KiB / 8 B = 4096 complex64
    points; the AXI DMA path (14 µs setup, 300 B/µs); and the default
    :class:`FFTTimingModel`.  Both models are frozen and shared by all
    devices.
    """

    bram_bytes = 32 * 1024
    max_points = bram_bytes // COMPLEX64_BYTES
    dma = DMAModel(setup_latency_us=14.0, bandwidth_bytes_per_us=300.0)
    timing = FFTTimingModel()

    def __init__(self, name: str) -> None:
        self.name = name
        self.buffer = DmaBuffer(self.bram_bytes)
        self.state = AcceleratorState.IDLE
        self._pending_points = 0
        self._pending_inverse = False
        self.jobs_completed = 0

    # -- timing-model interface (virtual backend) ------------------------------

    def compute_time(self, n_points: int) -> float:
        """Device compute time in µs, excluding DMA."""
        return self.timing.compute_time(n_points)

    def job_time(self, n_points: int) -> float:
        """End-to-end accelerator service time: DMA in + compute + DMA out."""
        nbytes = n_points * COMPLEX64_BYTES
        return self.dma.round_trip_time(nbytes, nbytes) + self.compute_time(n_points)

    # -- functional interface (threaded backend) --------------------------------

    def load(self, samples: np.ndarray, inverse: bool = False) -> None:
        """DMA input samples into BRAM; device must be idle."""
        if self.state is not AcceleratorState.IDLE:
            raise EmulationError(
                f"accelerator {self.name!r}: load() while {self.state.value}"
            )
        data = np.ascontiguousarray(samples, dtype=np.complex64)
        if data.size > self.max_points:
            raise MemoryError_(
                f"accelerator {self.name!r}: {data.size} points exceeds "
                f"max {self.max_points}"
            )
        self.buffer.write(data)
        self._pending_points = data.size
        self._pending_inverse = inverse

    def start(self) -> None:
        """Kick off the transform on whatever was loaded."""
        if self.state is not AcceleratorState.IDLE:
            raise EmulationError(
                f"accelerator {self.name!r}: start() while {self.state.value}"
            )
        if self._pending_points == 0:
            raise EmulationError(f"accelerator {self.name!r}: start() before load()")
        self.state = AcceleratorState.BUSY

    def step(self) -> None:
        """Advance the device: performs the transform and raises DONE.

        In hardware this happens asynchronously; the threaded backend calls
        ``step()`` from its device-service path between the resource
        manager's ``start()`` and its completion poll.
        """
        if self.state is not AcceleratorState.BUSY:
            return
        n = self._pending_points
        data = self.buffer.view(n * COMPLEX64_BYTES, np.complex64)
        if self._pending_inverse:
            result = np.fft.ifft(data).astype(np.complex64)
        else:
            result = np.fft.fft(data).astype(np.complex64)
        data[:] = result
        self.state = AcceleratorState.DONE
        self.jobs_completed += 1

    def poll(self) -> bool:
        """True once the device has finished (the status-register read)."""
        return self.state is AcceleratorState.DONE

    def read_result(self) -> np.ndarray:
        """DMA results back out of BRAM; resets the device to idle."""
        if self.state is not AcceleratorState.DONE:
            raise EmulationError(
                f"accelerator {self.name!r}: read_result() while {self.state.value}"
            )
        out = self.buffer.read(
            self._pending_points * COMPLEX64_BYTES, np.complex64
        )
        self.state = AcceleratorState.IDLE
        self._pending_points = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FFTAcceleratorDevice({self.name!r}, state={self.state.value})"
