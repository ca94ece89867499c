"""Analysis and reporting: turn emulation stats into the paper's artifacts."""

from repro.analysis.boxstats import BoxStats, box_stats
from repro.analysis.figures import ascii_chart, fig10_chart, fig11_chart
from repro.analysis.tables import format_table
from repro.analysis.trace_export import (
    gantt_ascii,
    records_as_dicts,
    to_csv,
    to_json,
    write_csv,
    write_json,
)

__all__ = [
    "BoxStats",
    "box_stats",
    "ascii_chart",
    "fig10_chart",
    "fig11_chart",
    "format_table",
    "gantt_ascii",
    "records_as_dicts",
    "to_csv",
    "to_json",
    "write_csv",
    "write_json",
]
