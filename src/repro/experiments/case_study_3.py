"""Case Study 3 — portability: Odroid XU3 sweep (paper Sec. III-E, Fig. 11).

Execution time versus job injection rate for combinations of big and
LITTLE cores on the Exynos 5422, performance mode, FRFS.  The management
(overlay) processor is a LITTLE core, so scheduling overhead — which grows
with the PE count under FRFS — is inflated by its lower speed; this is
what makes 4BIG+3LTL and 4BIG+2LTL lose to 4BIG+1LTL at high rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.common.errors import EmulationError
from repro.dse import SweepGrid, rate_sweep, run_campaign
from repro.experiments.workloads import FIG11_CONFIGS, FIG11_RATES


@dataclass
class Fig11Point:
    config: str
    rate: float
    execution_time_s: float
    avg_sched_overhead_us: float


def fig11_grid(
    *,
    configs: tuple[str, ...] = FIG11_CONFIGS,
    rates: tuple[float, ...] = FIG11_RATES,
    policy: str = "frfs",
    iterations: int = 1,
) -> SweepGrid:
    """The Fig. 11 sweep as a campaign grid (rates x Odroid configs)."""
    return SweepGrid(
        platforms=("odroid_xu3",),
        configs=tuple(configs),
        policies=(policy,),
        workloads=tuple(rate_sweep(rate) for rate in rates),
        iterations=iterations,
        jitter=iterations > 1,
    )


def run_fig11(
    *,
    configs: tuple[str, ...] = FIG11_CONFIGS,
    rates: tuple[float, ...] = FIG11_RATES,
    policy: str = "frfs",
    iterations: int = 1,
    jobs: int = 1,
    out_dir: str | None = None,
) -> list[Fig11Point]:
    """Sweep Odroid configurations against injection rates.

    The paper averages multiple iterations per point; with jitter disabled
    the virtual backend is deterministic, so ``iterations=1`` reproduces
    the mean directly (pass more to exercise the averaging path).  The
    12-config x 8-rate product runs through the DSE campaign engine;
    ``jobs`` parallelizes it and ``out_dir`` makes it cached/resumable.
    """
    grid = fig11_grid(
        configs=configs, rates=rates, policy=policy, iterations=iterations
    )
    campaign = run_campaign(grid, jobs=jobs, out_dir=out_dir)
    points: list[Fig11Point] = []
    for res in campaign:
        if not res.ok or res.metrics is None:
            raise EmulationError(
                f"fig11 cell {res.cell.label} failed: {res.error}"
            )
        points.append(
            Fig11Point(
                config=res.cell.config,
                rate=res.cell.workload["rate"],
                execution_time_s=float(
                    np.mean([us / 1e6 for us in res.metrics["makespan_us_runs"]])
                ),
                avg_sched_overhead_us=float(
                    np.mean(res.metrics["sched_overhead_us_runs"])
                ),
            )
        )
    return points


def render_fig11(points: list[Fig11Point]) -> str:
    body = [
        [p.config, p.rate, round(p.execution_time_s, 4),
         round(p.avg_sched_overhead_us, 2)]
        for p in sorted(points, key=lambda p: (p.rate, p.config))
    ]
    return format_table(
        ["config", "rate_jobs_per_ms", "exec_time_s", "avg_overhead_us"],
        body,
        title="Fig 11: Odroid XU3 execution time vs injection rate (FRFS)",
    )


def check_fig11_shape(points: list[Fig11Point]) -> list[str]:
    """The paper's qualitative claims; returns a list of violations."""
    # the paper's Fig. 11 spans roughly 0.2-1.8 s across rates 4-18
    problems = [
        f"{p.config} @ {p.rate}: {p.execution_time_s:.3f} s outside 0.05-6 s"
        for p in points if not 0.05 <= p.execution_time_s <= 6.0
    ]
    top_rate = max(p.rate for p in points)
    at_top = {p.config: p.execution_time_s for p in points if p.rate == top_rate}
    overhead_at_top = {
        p.config: p.avg_sched_overhead_us for p in points if p.rate == top_rate
    }

    def has(*configs: str) -> bool:
        return all(c in at_top for c in configs)

    if has("4BIG+3LTL", "2BIG+2LTL") and not (
        overhead_at_top["4BIG+3LTL"] > overhead_at_top["2BIG+2LTL"]
    ):
        problems.append(
            "4BIG+3LTL should pay more scheduling overhead than 2BIG+2LTL"
        )
    if has("3BIG+2LTL"):
        best = min(at_top.values())
        if at_top["3BIG+2LTL"] > 1.10 * best:
            problems.append(
                "3BIG+2LTL should be within ~10% of the best configuration"
            )
    if has("4BIG+3LTL", "4BIG+1LTL") and not (
        at_top["4BIG+3LTL"] > at_top["4BIG+1LTL"]
    ):
        problems.append("4BIG+3LTL should be slower than 4BIG+1LTL (overhead)")
    if has("4BIG+2LTL", "4BIG+1LTL") and not (
        at_top["4BIG+2LTL"] > at_top["4BIG+1LTL"]
    ):
        problems.append("4BIG+2LTL should be slower than 4BIG+1LTL (overhead)")
    if has("0BIG+3LTL") and at_top["0BIG+3LTL"] <= np.median(list(at_top.values())):
        problems.append("0BIG+3LTL (LITTLE-only) should be among the slowest")
    # execution time should grow with rate for every configuration
    by_config: dict[str, list[Fig11Point]] = {}
    for p in points:
        by_config.setdefault(p.config, []).append(p)
    for config, series in by_config.items():
        series.sort(key=lambda p: p.rate)
        times = [p.execution_time_s for p in series]
        if len(times) >= 2 and times[-1] <= times[0]:
            problems.append(f"{config}: execution time should grow with rate")
    return problems
