"""Case Study 1 — validation mode (paper Sec. III-C, Fig. 9).

Execution time (box statistics over repeated iterations) and per-PE
utilization of the four-application validation workload across the seven
ZCU102 DSSoC configurations under FRFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.boxstats import BoxStats, box_stats
from repro.analysis.tables import format_table
from repro.common.errors import EmulationError
from repro.dse import SweepGrid, run_campaign, validation_sweep
from repro.experiments.workloads import FIG9_CONFIGS

#: Case study 1's validation workload: one instance of each application.
FIG9_APPS = {"pulse_doppler": 1, "range_detection": 1, "wifi_tx": 1, "wifi_rx": 1}


@dataclass
class Fig9Row:
    config: str
    execution_time: BoxStats          # milliseconds
    pe_utilization: dict[str, float]  # per PE name


def fig9_grid(
    *,
    iterations: int = 50,
    configs: tuple[str, ...] = FIG9_CONFIGS,
    policy: str = "frfs",
    seed: int = 0,
) -> SweepGrid:
    """The Fig. 9 sweep as a campaign grid (configs x one workload)."""
    return SweepGrid(
        configs=tuple(configs),
        policies=(policy,),
        workloads=(validation_sweep(FIG9_APPS),),
        seeds=(seed,),
        iterations=iterations,
        jitter=True,
    )


def run_fig9(
    *,
    iterations: int = 50,
    configs: tuple[str, ...] = FIG9_CONFIGS,
    policy: str = "frfs",
    seed: int = 0,
    jobs: int = 1,
    out_dir: str | None = None,
) -> list[Fig9Row]:
    """Reproduce Fig. 9: ``iterations`` runs per configuration.

    The paper generates its box plot from 50 iterations; per-run variation
    comes from the calibrated execution-time jitter model.  The sweep runs
    through the DSE campaign engine: pass ``jobs`` to parallelize across
    configurations and ``out_dir`` to cache/journal the campaign.
    """
    grid = fig9_grid(
        iterations=iterations, configs=configs, policy=policy, seed=seed
    )
    campaign = run_campaign(grid, jobs=jobs, out_dir=out_dir)
    rows: list[Fig9Row] = []
    for res in campaign:
        if not res.ok or res.metrics is None:
            raise EmulationError(f"fig9 cell {res.cell.label} failed: {res.error}")
        times_ms = [us / 1000.0 for us in res.metrics["makespan_us_runs"]]
        rows.append(
            Fig9Row(
                config=res.cell.config,
                execution_time=box_stats(times_ms),
                pe_utilization=dict(res.metrics["pe_utilization"]),
            )
        )
    return rows


def render_fig9(rows: list[Fig9Row]) -> str:
    """Fig. 9a (execution-time boxes) and 9b (PE utilization) as text."""
    time_rows = []
    for row in rows:
        b = row.execution_time
        time_rows.append(
            [row.config, b.minimum, b.q1, b.median, b.q3, b.maximum, b.n]
        )
    part_a = format_table(
        ["config", "min_ms", "q1_ms", "median_ms", "q3_ms", "max_ms", "iters"],
        time_rows,
        title="Fig 9a: workload execution time per DSSoC configuration (FRFS)",
    )
    util_rows = []
    for row in rows:
        for pe_name, util in sorted(row.pe_utilization.items()):
            util_rows.append([row.config, pe_name, round(100 * util, 1)])
    part_b = format_table(
        ["config", "pe", "utilization_%"],
        util_rows,
        title="Fig 9b: PE utilization per DSSoC configuration",
    )
    return part_a + "\n\n" + part_b


def check_fig9_shape(rows: list[Fig9Row]) -> list[str]:
    """The paper's qualitative claims; returns a list of violations."""
    med = {r.config: r.execution_time.median for r in rows}
    problems: list[str] = []
    if not med["3C+0F"] <= min(med.values()) * 1.05:
        problems.append("3C+0F should be the best configuration")
    core_gain = med["1C+1F"] - med["2C+1F"]
    fft_gain = med["1C+1F"] - med["1C+2F"]
    if core_gain <= fft_gain:
        problems.append(
            "adding a core (1C+1F->2C+1F) should beat adding an FFT "
            "(1C+1F->1C+2F)"
        )
    if abs(med["2C+2F"] - med["2C+1F"]) > 0.15 * med["2C+1F"]:
        problems.append("2C+2F should be within ~15% of 2C+1F (shared RM core)")
    if med["1C+0F"] <= med["3C+0F"]:
        problems.append("1C+0F should be the slowest all-CPU configuration")
    # the paper's Fig. 9a spans roughly 6-16 ms across configurations
    for config, lo, hi in (("1C+0F", 8.0, 25.0), ("3C+0F", 4.0, 12.0)):
        if not lo <= med[config] <= hi:
            problems.append(
                f"{config} median {med[config]:.2f} ms outside {lo:g}-{hi:g} ms"
            )
    for row in rows:
        box = row.execution_time
        if box.n > 1 and box.maximum <= box.minimum:
            problems.append(f"{row.config}: execution-time box has no spread")
        util = row.pe_utilization
        cpu = [u for pe, u in util.items() if pe.startswith("cpu")]
        fft = [u for pe, u in util.items() if pe.startswith("fft")]
        if fft and cpu and max(fft) > max(cpu):
            problems.append(
                f"{row.config}: CPU utilization should exceed FFT utilization"
            )
        # paper: maximum CPU utilization ~80 %, observed on 1C+0F
        if row.config == "1C+0F" and not 0.70 <= max(cpu) <= 0.98:
            problems.append(
                f"1C+0F max CPU utilization {max(cpu):.2f} outside 0.70-0.98"
            )
    return problems
