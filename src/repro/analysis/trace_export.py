"""Execution-trace export: per-task schedules as CSV/JSON and ASCII Gantt.

The framework "collects the scheduling statistics for all the applications
and their tasks" before termination (Sec. II-A); this module turns those
records into artifacts downstream tools can consume — a CSV/JSON schedule
dump, and a terminal Gantt chart for eyeballing PE occupancy and dispatch
gaps while debugging schedulers or accelerator integrations.
"""

from __future__ import annotations

import csv
import io
import json

from repro.runtime.stats import EmulationStats

#: keys of every exported task row, in column order
_FIELDS = (
    "task_id", "app_name", "instance_id", "task_name", "pe_name", "pe_type",
    "ready_time", "dispatch_time", "start_time", "finish_time",
    "service_time", "queue_delay",
)


def records_as_dicts(stats: EmulationStats) -> list[dict]:
    """All task records as flat dicts (time fields in µs), by start time."""
    return [
        {f: getattr(r, f) for f in _FIELDS}
        for r in sorted(stats.task_records, key=lambda r: r.start_time)
    ]


def to_csv(stats: EmulationStats) -> str:
    """The schedule as CSV text (one row per executed task)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_FIELDS)
    writer.writeheader()
    writer.writerows(records_as_dicts(stats))
    return buffer.getvalue()


def to_json(stats: EmulationStats) -> str:
    """Schedule + summary as a JSON document."""
    return json.dumps(
        {"summary": stats.summary(), "tasks": records_as_dicts(stats)},
        indent=2,
    )


def write_csv(stats: EmulationStats, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_csv(stats))


def write_json(stats: EmulationStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(stats))


#: character columns of the Gantt chart's time axis
GANTT_WIDTH = 72


def gantt_ascii(stats: EmulationStats) -> str:
    """One row per PE; each task paints its span with a per-app letter."""
    if not stats.task_records:
        return "(no tasks executed)"
    horizon = stats.makespan
    if horizon <= 0:
        return "(empty horizon)"
    app_letters: dict[str, str] = {}
    for rec in stats.task_records:
        if rec.app_name not in app_letters:
            app_letters[rec.app_name] = chr(ord("A") + len(app_letters) % 26)
    rows: dict[str, list[str]] = {
        name: [" "] * GANTT_WIDTH for name in sorted(stats.pe_usage)
    }
    for rec in stats.task_records:
        if rec.start_time >= horizon:
            continue
        row = rows[rec.pe_name]
        begin = int(rec.start_time / horizon * (GANTT_WIDTH - 1))
        end = int(min(rec.finish_time, horizon) / horizon * (GANTT_WIDTH - 1))
        letter = app_letters[rec.app_name]
        for col in range(begin, max(begin, end) + 1):
            row[col] = letter
    name_width = max(len(n) for n in rows)
    lines = [
        f"{name.rjust(name_width)} |{''.join(cells)}|"
        for name, cells in rows.items()
    ]
    legend = "  ".join(f"{v}={k}" for k, v in app_letters.items())
    scale = f"0 .. {horizon:.0f} us"
    lines.append(" " * name_width + f"  {scale}")
    lines.append(" " * name_width + f"  {legend}")
    return "\n".join(lines)
