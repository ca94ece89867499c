"""Canonical workload definitions for the paper's case studies.

* Table II's five performance-mode workloads (instance counts per app at
  each average injection rate; counts sum to rate × 100 ms).
* Rate-scaled workloads for the Odroid sweep of Fig. 11 (rates 4–18
  jobs/ms, same application mix proportions as Table II).
* The configuration axes of Figs. 9 and 11, and the one way the case
  studies run their campaign grids.
"""

from __future__ import annotations

import math

from repro.common.errors import ApplicationSpecError, EmulationError
from repro.common.units import MS
from repro.dse import CellResult, SweepGrid, run_campaign
from repro.runtime.workload import (
    WorkloadSpec,
    workload_for_counts,
)

#: Paper Table II: injection rate (jobs/ms) -> instance counts per app.
TABLE_II_COUNTS: dict[float, dict[str, int]] = {
    1.71: {"pulse_doppler": 8, "range_detection": 123, "wifi_tx": 20, "wifi_rx": 20},
    2.28: {"pulse_doppler": 10, "range_detection": 164, "wifi_tx": 27, "wifi_rx": 27},
    3.42: {"pulse_doppler": 15, "range_detection": 245, "wifi_tx": 41, "wifi_rx": 41},
    4.57: {"pulse_doppler": 18, "range_detection": 329, "wifi_tx": 55, "wifi_rx": 55},
    6.92: {"pulse_doppler": 32, "range_detection": 495, "wifi_tx": 82, "wifi_rx": 83},
}

TABLE_II_RATES: tuple[float, ...] = tuple(TABLE_II_COUNTS)

#: Default test time-frame (the paper's 100 ms window).
TIME_FRAME_US: float = 100.0 * MS

#: Application mix proportions (share of total jobs), averaged over the
#: Table II workloads — used to synthesize workloads at arbitrary rates.
MIX_SHARES: dict[str, float] = {
    "pulse_doppler": 0.046,
    "range_detection": 0.718,
    "wifi_tx": 0.118,
    "wifi_rx": 0.118,
}


def table_ii_workload(rate: float) -> WorkloadSpec:
    """One of the five canonical performance-mode workloads."""
    try:
        counts = TABLE_II_COUNTS[rate]
    except KeyError:
        raise KeyError(
            f"rate {rate} is not a Table II rate (use {TABLE_II_RATES} or "
            "workload_at_rate for arbitrary rates)"
        ) from None
    return workload_for_counts(counts, TIME_FRAME_US)


def counts_at_rate(rate: float, time_frame: float = TIME_FRAME_US) -> dict[str, int]:
    """Instance counts for an arbitrary rate using the Table II mix."""
    # A zero/negative/NaN rate would otherwise quietly clamp to one
    # instance per app via max(1, ...) and misreport the cell it labels.
    if not math.isfinite(rate) or rate <= 0:
        raise ApplicationSpecError(
            f"injection rate must be positive, got {rate}"
        )
    if not math.isfinite(time_frame) or time_frame <= 0:
        raise ApplicationSpecError(
            f"time_frame must be positive, got {time_frame}"
        )
    total_jobs = rate * (time_frame / MS)
    counts: dict[str, int] = {}
    for app, share in MIX_SHARES.items():
        counts[app] = max(1, round(total_jobs * share))
    return counts


def workload_at_rate(rate: float, time_frame: float = TIME_FRAME_US) -> WorkloadSpec:
    """A Table-II-mix workload at any average injection rate (Fig. 11)."""
    return workload_for_counts(counts_at_rate(rate, time_frame), time_frame)


#: Fig. 9's seven ZCU102 DSSoC configurations, in the paper's order.
FIG9_CONFIGS: tuple[str, ...] = (
    "1C+0F", "1C+1F", "1C+2F", "2C+0F", "2C+1F", "2C+2F", "3C+0F",
)

#: Fig. 11's twelve Odroid XU3 configurations, in the paper's legend order.
FIG11_CONFIGS: tuple[str, ...] = (
    "0BIG+3LTL", "1BIG+2LTL", "1BIG+3LTL", "2BIG+1LTL",
    "2BIG+2LTL", "2BIG+3LTL", "3BIG+1LTL", "3BIG+2LTL",
    "3BIG+3LTL", "4BIG+1LTL", "4BIG+2LTL", "4BIG+3LTL",
)

#: Fig. 11's x-axis (jobs per millisecond); the paper plots 4–18.
FIG11_RATES: tuple[float, ...] = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0)


def _run_grid(
    grid: SweepGrid, what: str, *, jobs: int = 1, out_dir: str | None = None
) -> list[CellResult]:
    """Every cell of ``grid`` run as one campaign, in grid order; the first
    failed cell raises ``EmulationError`` naming ``what`` and the cell."""
    results = list(run_campaign(grid, jobs=jobs, out_dir=out_dir))
    for res in results:
        if not res.ok or res.metrics is None:
            raise EmulationError(f"{what} cell {res.cell.label} failed: {res.error}")
    return results
