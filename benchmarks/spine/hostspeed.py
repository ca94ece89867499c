"""Host speed next to each measurement: a fixed piece of work, timed.

The hosts this benchmark runs on are small shared VMs.  Each vCPU flips,
every few seconds to minutes, between its quiet speed and one 1.4 to 2
times slower (another tenant on the same core: ``time.process_time`` slows
with the wall clock, so it is the CPU that slows, not the process that
waits, and ``/proc/stat`` reports no steal).  Plain host seconds of the
same code on the same host then differ by that much from one run to the
next, which no median over a run's repetitions removes, and no metric
gated on them could hold a bound of 25 %.

:func:`kernel` is the fixed work: pure standard library, no ``repro``
code, about 15 ms on the quiet host the sizes were chosen on
(:data:`REFERENCE_KERNEL_S`).  It is timed right next to every set-up and,
in blocks of :data:`BLOCK`, before and after every repetition.  The plain
host seconds are reported as measured (``wall_s``, ``cpu_s``,
``setup_host_s``); the metrics the contract gates (``wall_ref_s``,
``cpu_ref_s``, ``setup_s``) are the same samples multiplied by
:func:`speed` of the kernel timings around them: seconds *at the
reference speed*.  On a quiet reference host the factor is 1.

The kernel and the constant define the unit of the ``*_ref_s`` metrics.
Changing either re-bases them: do it only together with a new zero point.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Kernel seconds on the reference host (2 vCPU, CPython 3.11) when quiet.
REFERENCE_KERNEL_S = 0.0150

#: Kernel timings taken before and after each repetition.  A repetition
#: lasts seconds and the host's speed can flip inside it, so the two
#: blocks around it only estimate its speed; a dozen timings (~0.2 s)
#: at least average over the sub-second spikes.
BLOCK = 12

_ARITH_OPS = 60_000
_HEAP_EVENTS = 12_000
_HEAP_DEPTH = 400


class _Event:
    __slots__ = ("at", "payload")

    def __init__(self, at: float) -> None:
        self.at = at
        self.payload = None


def kernel() -> float:
    """Seconds this host takes for the fixed work.

    Two halves, shaped like the program's two kinds of hot code: integer
    and dict traffic, then a heap-ordered event loop allocating a small
    object per event.
    """
    t0 = perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(_ARITH_OPS):
        acc += i * i % 7
        table[i & 1023] = acc

    heap: list[tuple[float, int, _Event]] = []
    seq = 0
    for i in range(_HEAP_DEPTH):
        seq += 1
        heapq.heappush(heap, (float(i % 17), seq, _Event(float(i))))
    recent: dict[int, _Event] = {}
    for fired in range(1, _HEAP_EVENTS + 1):
        now, _, event = heapq.heappop(heap)
        recent[fired & 255] = event
        seq += 1
        heapq.heappush(
            heap, (now + (fired * 7) % 13 + 0.5, seq, _Event(now))
        )
    return perf_counter() - t0


def block() -> list[float]:
    """``BLOCK`` kernel timings, back to back."""
    return [kernel() for _ in range(BLOCK)]


def speed(kernel_times: list[float]) -> float:
    """Host speed over these timings (1.0 = the quiet reference host);
    the mean, because a measurement's time is the sum over its interval."""
    return REFERENCE_KERNEL_S * len(kernel_times) / sum(kernel_times)
