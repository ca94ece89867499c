"""Derived metrics over emulation statistics."""

from __future__ import annotations

import numpy as np

from repro.runtime.stats import EmulationStats


def per_type_utilization(stats: EmulationStats) -> dict[str, float]:
    """Mean utilization per PE *type* (averages Fig. 9b's bars by type)."""
    per_pe = stats.pe_utilization()
    grouped: dict[str, list[float]] = {}
    for name, util in per_pe.items():
        pe_type = stats.pe_usage[name].pe_type
        grouped.setdefault(pe_type, []).append(util)
    return {t: float(np.mean(vals)) for t, vals in grouped.items()}


def queue_delay_stats(stats: EmulationStats) -> dict[str, float]:
    """Ready→start latency distribution across all tasks (µs)."""
    delays = np.array([r.queue_delay for r in stats.task_records])
    if delays.size == 0:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "mean": float(delays.mean()),
        "p50": float(np.percentile(delays, 50)),
        "p95": float(np.percentile(delays, 95)),
        "max": float(delays.max()),
    }


def throughput_tasks_per_ms(stats: EmulationStats) -> float:
    """Completed tasks per millisecond of emulation time."""
    if stats.makespan <= 0:
        return 0.0
    return stats.task_count / (stats.makespan / 1000.0)


def schedulability_check(stats: EmulationStats, time_frame_us: float) -> bool:
    """Did the configuration keep up with the offered load?

    True when the workload finished within a small multiple of the
    injection window — the sustained-rate criterion behind the linear
    region of Figs. 10a and 11.
    """
    if time_frame_us <= 0:
        return True
    return stats.makespan <= 3.0 * time_frame_us

