"""Case Study 2 — performance mode (paper Sec. III-D, Tables I–II, Fig. 10).

Table I: standalone application execution time and task count on the
3-core + 2-FFT configuration under FRFS.  Table II: the instance counts
the workload generator produces at each injection rate.  Fig. 10: workload
execution time and average scheduling overhead across the Table II
injection rates for the EFT, MET, and FRFS policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.apps import default_applications
from repro.common.errors import EmulationError
from repro.dse import SweepGrid, run_campaign, table_ii_sweep, validation_sweep
from repro.experiments.workloads import (
    TABLE_II_COUNTS,
    TABLE_II_RATES,
    table_ii_workload,
)
from repro.runtime.workload import WorkloadSpec

#: Paper Table I reference values (ms / count) for EXPERIMENTS.md.
PAPER_TABLE_I = {
    "range_detection": (0.32, 6),
    "pulse_doppler": (5.60, 770),
    "wifi_tx": (0.13, 7),
    "wifi_rx": (2.22, 9),
}


@dataclass
class TableIRow:
    application: str
    execution_time_ms: float
    task_count: int


def run_table_i(*, config: str = "3C+2F", policy: str = "frfs") -> list[TableIRow]:
    """Standalone application times (single instance, validation mode)."""
    grid = SweepGrid(
        configs=(config,),
        policies=(policy,),
        workloads=tuple(
            validation_sweep({app_name: 1}) for app_name in default_applications()
        ),
    )
    rows: list[TableIRow] = []
    for res in run_campaign(grid):
        if not res.ok or res.metrics is None:
            raise EmulationError(
                f"table I cell {res.cell.label} failed: {res.error}"
            )
        (app_name,) = res.cell.workload["apps"]
        rows.append(
            TableIRow(
                application=app_name,
                execution_time_ms=res.metrics["makespan_us_runs"][0] / 1000.0,
                task_count=res.metrics["tasks"],
            )
        )
    return rows


def render_table_i(rows: list[TableIRow]) -> str:
    body = []
    for row in sorted(rows, key=lambda r: r.application):
        paper_ms, paper_tasks = PAPER_TABLE_I.get(row.application, ("-", "-"))
        body.append(
            [row.application, round(row.execution_time_ms, 3), row.task_count,
             paper_ms, paper_tasks]
        )
    return format_table(
        ["application", "exec_ms", "tasks", "paper_ms", "paper_tasks"],
        body,
        title="Table I: standalone execution time and task count (3C+2F, FRFS)",
    )


def check_table_i(rows: list[TableIRow]) -> list[str]:
    """Exact task counts, times within 2x and the paper's ordering."""
    by_app = {r.application: r for r in rows}
    problems: list[str] = []
    for app, (paper_ms, paper_tasks) in PAPER_TABLE_I.items():
        row = by_app[app]
        if row.task_count != paper_tasks:
            problems.append(
                f"{app}: {row.task_count} tasks, the paper has {paper_tasks}"
            )
        if not paper_ms / 2 <= row.execution_time_ms <= paper_ms * 2:
            problems.append(
                f"{app}: {row.execution_time_ms:.3f} ms is not within 2x of "
                f"the paper's {paper_ms} ms"
            )
    ms = {app: row.execution_time_ms for app, row in by_app.items()}
    if not (ms["pulse_doppler"] > ms["wifi_rx"] > ms["range_detection"]
            > ms["wifi_tx"]):
        problems.append("expected the paper's ordering PD > WiFi RX > RD > WiFi TX")
    return problems


def run_table_ii() -> dict[float, WorkloadSpec]:
    """The generated workload at every Table II rate."""
    return {rate: table_ii_workload(rate) for rate in sorted(TABLE_II_COUNTS)}


def render_table_ii(specs: dict[float, WorkloadSpec]) -> str:
    apps = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"]
    return format_table(
        ["rate", *apps],
        [[rate, *(spec.counts()[app] for app in apps)]
         for rate, spec in specs.items()],
        title="Table II: instance counts per injection rate",
    )


def check_table_ii(specs: dict[float, WorkloadSpec]) -> list[str]:
    """Exact counts, rates recovered to ±0.005, arrivals inside the window."""
    problems: list[str] = []
    for rate, spec in specs.items():
        if spec.counts() != TABLE_II_COUNTS[rate]:
            problems.append(f"rate {rate}: counts differ from the paper's")
        if abs(spec.injection_rate_per_ms() - rate) > 0.005:
            problems.append(
                f"rate {rate}: the trace's rate is "
                f"{spec.injection_rate_per_ms():.4f} jobs/ms"
            )
        if not all(0.0 <= i.arrival_time < spec.time_frame for i in spec.items):
            problems.append(f"rate {rate}: an arrival falls outside the window")
    return problems


@dataclass
class Fig10Point:
    rate: float
    policy: str
    execution_time_s: float
    avg_sched_overhead_us: float
    mean_ready_length: float


def fig10_grid(
    *,
    rates: tuple[float, ...] = TABLE_II_RATES,
    policies: tuple[str, ...] = ("eft", "met", "frfs"),
    config: str = "3C+2F",
) -> SweepGrid:
    """The Fig. 10 sweep as a campaign grid (rates x policies)."""
    return SweepGrid(
        configs=(config,),
        policies=tuple(policies),
        workloads=tuple(table_ii_sweep(rate) for rate in rates),
    )


def run_fig10(
    *,
    rates: tuple[float, ...] = TABLE_II_RATES,
    policies: tuple[str, ...] = ("eft", "met", "frfs"),
    config: str = "3C+2F",
    jobs: int = 1,
    out_dir: str | None = None,
) -> list[Fig10Point]:
    """Sweep policies across the Table II injection-rate workloads."""
    grid = fig10_grid(rates=rates, policies=policies, config=config)
    campaign = run_campaign(grid, jobs=jobs, out_dir=out_dir)
    points: list[Fig10Point] = []
    for res in campaign:
        if not res.ok or res.metrics is None:
            raise EmulationError(
                f"fig10 cell {res.cell.label} failed: {res.error}"
            )
        points.append(
            Fig10Point(
                rate=res.cell.workload["rate"],
                policy=res.cell.policy,
                execution_time_s=res.metrics["makespan_us_runs"][0] / 1e6,
                avg_sched_overhead_us=res.metrics["sched_overhead_us_runs"][0],
                mean_ready_length=res.metrics["mean_ready_length"],
            )
        )
    return points


def render_fig10(points: list[Fig10Point]) -> str:
    body = [
        [p.rate, p.policy, round(p.execution_time_s, 3),
         round(p.avg_sched_overhead_us, 2)]
        for p in points
    ]
    return format_table(
        ["rate_jobs_per_ms", "policy", "exec_time_s", "avg_overhead_us"],
        body,
        title="Fig 10: execution time (a) and scheduling overhead (b), 3C+2F",
    )


def check_fig10_shape(points: list[Fig10Point]) -> list[str]:
    """The paper's qualitative claims; returns a list of violations."""
    by_policy: dict[str, list[Fig10Point]] = {}
    for p in points:
        by_policy.setdefault(p.policy, []).append(p)
    for series in by_policy.values():
        series.sort(key=lambda p: p.rate)
    problems: list[str] = []
    tol = 1.02  # FRFS and MET tie at the lowest rate (paper: 0.10 vs 0.10)
    for rate in sorted({p.rate for p in points}):
        at = {p.policy: p for p in points if p.rate == rate}
        if not (
            at["frfs"].execution_time_s
            <= tol * at["met"].execution_time_s
            <= tol * tol * at["eft"].execution_time_s
        ):
            problems.append(f"rate {rate}: expected EFT >= MET >= FRFS makespan")
        if not (
            at["frfs"].avg_sched_overhead_us
            < at["met"].avg_sched_overhead_us
            < at["eft"].avg_sched_overhead_us
        ):
            problems.append(f"rate {rate}: expected overhead EFT > MET > FRFS")
    frfs = by_policy.get("frfs", [])
    if frfs:
        overheads = [p.avg_sched_overhead_us for p in frfs]
        if max(overheads) > 3.0 * min(overheads):
            problems.append("FRFS overhead should stay roughly constant")
        if max(overheads) > 10.0:
            problems.append("FRFS overhead should stay at microsecond scale")
        times = [p.execution_time_s for p in frfs]
        if times != sorted(times):
            problems.append("FRFS execution time should grow with rate")
        if len(frfs) >= 3:
            rates = [p.rate for p in frfs]
            fit = np.polyval(np.polyfit(rates, times, 1), rates)
            residual = float(np.abs(fit - np.array(times)).max())
            if residual > 0.25 * (max(times) - min(times) + 0.05):
                problems.append("FRFS execution time should be linear in rate")
    for name in ("met", "eft"):
        series = by_policy.get(name, [])
        if len(series) >= 2 and series[-1].avg_sched_overhead_us <= (
            series[0].avg_sched_overhead_us
        ):
            problems.append(f"{name} overhead should grow with injection rate")
    # the paper's decades: FRFS ~1e0 us, MET 1e1-1e3 us, EFT 1e2-1e5 us
    decades = {"frfs": (1.0, 8.0), "met": (5.0, 2000.0), "eft": (100.0, 100_000.0)}
    for p in points:
        lo, hi = decades.get(p.policy, (0.0, float("inf")))
        if not lo <= p.avg_sched_overhead_us <= hi:
            problems.append(
                f"rate {p.rate}: {p.policy} overhead "
                f"{p.avg_sched_overhead_us:.2f} us outside {lo:g}-{hi:g} us"
            )
    # paper: EFT needs 4.6 s for the 100 ms window at the lowest rate
    if any(p.policy == "eft" and p.rate == 1.71 and p.execution_time_s <= 1.0
           for p in points):
        problems.append("EFT should take over 1 s at rate 1.71 (saturated)")
    return problems
