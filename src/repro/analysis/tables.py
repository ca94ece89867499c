"""Plain-text table rendering for the CLI and the experiment reports.

The experiments print the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Fixed-width table with a header rule.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ---
    1  2.5
    """
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


#: Column order for DSE campaign rows (``CampaignResult.rows()``).
CAMPAIGN_COLUMNS = (
    "label", "status", "makespan_ms", "total_energy_j",
    "avg_sched_overhead_us", "tasks", "cached",
)


def campaign_table(
    rows: Sequence[dict],
    *,
    sort_by: str | None = None,
) -> str:
    """Comparison table over a DSE campaign's flattened cell rows.

    ``sort_by`` orders by any numeric column (missing values sink to the
    bottom); the default preserves grid order.
    """
    rows = list(rows)
    if sort_by is not None:
        def key(row: dict):
            value = row.get(sort_by)
            missing = not isinstance(value, (int, float))
            return (missing, value if not missing else 0.0)

        rows.sort(key=key)
    body = [[_cell(row, col) for col in CAMPAIGN_COLUMNS] for row in rows]
    return format_table(list(CAMPAIGN_COLUMNS), body, title="Campaign results")


def _cell(row: dict, col: str) -> object:
    value = row.get(col, "")
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else ""
    return value


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
