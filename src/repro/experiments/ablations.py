"""Ablations — the paper's future-work items and its DS3 argument.

Three studies, each a few deterministic virtual-backend runs:

* **Reservation queues** (Sec. III-C / V future work): plain FRFS and EFT
  dispatch against their ``*_reserve`` variants on a Table II workload
  (3C+2F).  With per-PE work queues the PEs keep running while the
  workload manager deliberates, so EFT stops saturating.
* **Overhead-blind estimate** (Sec. III-D): the same FRFS and EFT runs
  with every runtime overhead zeroed — what a discrete-event simulator
  without the runtime (DS3) sees.  FRFS agrees; EFT's saturation vanishes
  from the estimate.
* **Power-aware MET** (Sec. V future work): MET against ``met_power`` on
  Odroid 2BIG+3LTL, where the LITTLE cores' power advantage outweighs
  their slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.experiments.workloads import (
    TIME_FRAME_US,
    table_ii_workload,
    workload_at_rate,
)
from repro.hardware.perfmodel import SchedulerCostModel
from repro.hardware.platform import odroid_xu3
from repro.runtime.backends import VirtualBackend
from repro.runtime.emulation import Emulation
from repro.runtime.stats import EmulationStats

#: The Table II rate the reservation and overhead-blind studies run at.
ABLATION_RATE = 2.28
#: Odroid configuration and injection rate of the power-aware study.
POWER_CONFIG = "2BIG+3LTL"
POWER_RATE = 2.0


@dataclass
class AblationRun:
    makespan_s: float
    avg_sched_overhead_us: float
    sched_invocations: int
    all_completed: bool       # every injected app completed
    little_share: float       # share of PE busy time on LITTLE cores
    active_energy_j: float    # energy over busy time only (idle is equal)


@dataclass
class AblationResult:
    rate: float
    #: frfs, frfs_reserve, eft, eft_reserve, frfs_blind, eft_blind (3C+2F
    #: at ``rate``) and met, met_power (Odroid, ``POWER_RATE``)
    runs: dict[str, AblationRun]


def overhead_blind_cost_model() -> SchedulerCostModel:
    """A cost model in which every runtime action is free (DS3-style)."""
    return SchedulerCostModel(
        policy_coeffs={
            name: (0.0, 0.0, 0) for name in SchedulerCostModel.DEFAULT_POLICY_COEFFS
        },
        base_cost=0.0,
        monitor_cost_per_completion=0.0,
        dispatch_cost_per_task=0.0,
    )


def _summarize(stats: EmulationStats) -> AblationRun:
    busy = {name: u.busy_time for name, u in stats.pe_usage.items()}
    little = sum(t for name, t in busy.items() if name.startswith("little"))
    return AblationRun(
        makespan_s=stats.makespan / 1e6,
        avg_sched_overhead_us=stats.avg_scheduling_overhead(),
        sched_invocations=stats.sched_invocations,
        all_completed=stats.apps_completed == stats.apps_injected,
        little_share=little / sum(busy.values()),
        active_energy_j=sum(
            u.busy_time * u.active_power_w / 1e6 for u in stats.pe_usage.values()
        ),
    )


def run_ablations(*, rate: float = ABLATION_RATE) -> AblationResult:
    """Run the three studies; ``rate`` must be a Table II rate."""
    def run(policy, workload, **kwargs) -> AblationRun:
        emu = Emulation(policy=policy, materialize_memory=False, jitter=False,
                        **kwargs)
        return _summarize(emu.run(workload, VirtualBackend()).stats)

    table_ii = table_ii_workload(rate)
    runs = {
        policy: run(policy, table_ii)
        for policy in ("frfs", "frfs_reserve", "eft", "eft_reserve")
    }
    for policy in ("frfs", "eft"):
        runs[f"{policy}_blind"] = run(
            policy, table_ii, cost_model=overhead_blind_cost_model()
        )
    odroid = workload_at_rate(POWER_RATE)
    for policy in ("met", "met_power"):
        runs[policy] = run(policy, odroid, platform=odroid_xu3(),
                           config=POWER_CONFIG)
    return AblationResult(rate=rate, runs=runs)


def render_ablations(result: AblationResult) -> str:
    runs = result.runs
    dispatch = format_table(
        ["variant", "makespan_s", "avg_overhead_us", "passes"],
        [[name, round(runs[name].makespan_s, 4),
          round(runs[name].avg_sched_overhead_us, 2),
          runs[name].sched_invocations]
         for name in ("frfs", "frfs_reserve", "eft", "eft_reserve",
                      "frfs_blind", "eft_blind")],
        title=(
            "Ablation: reservation queues and overhead-blind (DS3-style) "
            f"estimates, 3C+2F, rate {result.rate} jobs/ms"
        ),
    )
    power = format_table(
        ["policy", "makespan_s", "little_share", "active_energy_j"],
        [[name, round(runs[name].makespan_s, 4),
          round(runs[name].little_share, 4),
          round(runs[name].active_energy_j, 4)]
         for name in ("met", "met_power")],
        title=(
            f"Ablation: power-aware MET, Odroid {POWER_CONFIG}, "
            f"{POWER_RATE} jobs/ms"
        ),
    )
    return dispatch + "\n\n" + power


def check_ablations_shape(result: AblationResult) -> list[str]:
    """The three studies' claims; returns a list of violations."""
    runs = result.runs
    problems = [
        f"{name}: not every injected app completed"
        for name, run in runs.items() if not run.all_completed
    ]
    if not runs["eft_reserve"].makespan_s < runs["eft"].makespan_s / 2:
        problems.append("reservation queues should at least halve EFT's makespan")
    if runs["frfs_reserve"].makespan_s > 1.5 * runs["frfs"].makespan_s:
        problems.append("reservation queues should not slow FRFS by over 1.5x")
    if runs["frfs"].makespan_s > 1.3 * runs["frfs_blind"].makespan_s:
        problems.append("overhead-blind FRFS should agree within 1.3x")
    blind_eft = runs["eft_blind"].makespan_s
    if blind_eft >= 3 * TIME_FRAME_US / 1e6:
        problems.append("overhead-blind EFT should finish within 3 windows")
    if runs["eft"].makespan_s <= 20 * blind_eft:
        problems.append("overhead-blind EFT should underestimate the makespan >20x")
    if blind_eft >= 2 * runs["frfs"].makespan_s:
        problems.append(
            "overhead-blind EFT should look on par with FRFS (< 2x its makespan)"
        )
    if runs["met_power"].little_share <= runs["met"].little_share:
        problems.append("met_power should shift work toward the LITTLE cores")
    if runs["met_power"].active_energy_j >= runs["met"].active_energy_j:
        problems.append("met_power should use less active energy than met")
    return problems
