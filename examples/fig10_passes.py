#!/usr/bin/env python3
"""Real workload-manager passes behind Fig. 10's modelled invocations.

The cost model charges a pass that absorbed k completions as max(1, k)
scheduler invocations (``SchedulerCostModel.invocations``), and Fig. 10b's
overhead is averaged over those invocations.  This script runs the Fig. 10
cells (3C+2F, Table II rates x EFT / MET / FRFS) with the settings
``python -m repro.experiments.report --only fig10`` uses and prints, per
cell, the passes the workload manager really made, the completions each
absorbed on average, and ``sched_invocations``.  Execution time and
overhead match ``artifacts/fig10.txt``.

    PYTHONPATH=src python examples/fig10_passes.py            # all 15 cells
    PYTHONPATH=src python examples/fig10_passes.py 1.71 2.28  # some rates
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_table
from repro.dse.grid import build_workload
from repro.experiments.case_study_2 import fig10_grid
from repro.experiments.workloads import TABLE_II_RATES
from repro.hardware.platform import platform_by_name
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation


def main(argv: list[str]) -> None:
    rates = tuple(float(r) for r in argv) or TABLE_II_RATES
    rows = []
    for cell in fig10_grid(rates=rates).expand():
        # one iteration, as the campaign runner executes a virtual cell
        stats = Emulation(
            platform=platform_by_name(cell.platform), config=cell.config,
            policy=cell.policy, materialize_memory=False, jitter=cell.jitter,
            seed=cell.seed,
        ).run(build_workload(cell.workload), VirtualBackend()).stats
        rows.append([
            cell.workload["rate"], cell.policy, stats.task_count,
            stats.sched_passes,
            round(stats.completions_absorbed / stats.sched_passes, 2),
            stats.sched_invocations,
            round(stats.sched_invocations / stats.task_count, 2),
            round(stats.makespan / 1e6, 3),
            round(stats.avg_scheduling_overhead(), 2),
        ])
    print(format_table(
        ["rate", "policy", "tasks", "passes", "completions_per_pass",
         "invocations", "invocations_per_task", "exec_time_s",
         "avg_overhead_us"],
        rows,
        title="Fig 10 cells: real passes and modelled invocations, 3C+2F",
    ))


if __name__ == "__main__":
    main(sys.argv[1:])
