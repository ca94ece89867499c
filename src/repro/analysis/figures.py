"""ASCII figure rendering for experiment output.

The experiments print tables; for sweeps (Figs. 10 and 11) a coarse
terminal plot makes the *shape* — orderings, crossovers, growth — visible
at a glance without any plotting dependency.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

_MARKERS = "ox+*#@%&"
#: plot area of every chart, in characters
CHART_WIDTH = 64
CHART_HEIGHT = 16


def _fmt_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.1e}"
    return f"{value:.3g}"


def ascii_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    log_y: bool = False,
) -> str:
    """Render named (x, y) series as a character plot.

    ``log_y=True`` plots log10(y) — the scale Fig. 10 uses, where the three
    schedulers' overheads span five decades.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("no data to plot")
    if log_y and any(y <= 0 for _x, y in points):
        raise ValueError("log_y requires strictly positive y values")

    def ty(y: float) -> float:
        return math.log10(y) if log_y else y

    xs = [x for x, _y in points]
    ys = [ty(y) for _x, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * CHART_WIDTH for _ in range(CHART_HEIGHT)]
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            col = int(round((x - x_min) / x_span * (CHART_WIDTH - 1)))
            row = int(round((ty(y) - y_min) / y_span * (CHART_HEIGHT - 1)))
            grid[CHART_HEIGHT - 1 - row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = f"1e{y_max:.2f}" if log_y else _fmt_tick(y_max)
    bot_label = f"1e{y_min:.2f}" if log_y else _fmt_tick(y_min)
    label_width = max(len(top_label), len(bot_label))
    for i, row in enumerate(grid):
        if i == 0:
            label = top_label.rjust(label_width)
        elif i == CHART_HEIGHT - 1:
            label = bot_label.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    axis = " " * label_width + " +" + "-" * CHART_WIDTH
    lines.append(axis)
    x_axis = (
        " " * label_width
        + "  "
        + _fmt_tick(x_min)
        + _fmt_tick(x_max).rjust(CHART_WIDTH - len(_fmt_tick(x_min)))
    )
    lines.append(x_axis)
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * label_width + "  " + legend)
    return "\n".join(lines)


def fig10_chart(points) -> str:
    """Fig. 10a as an ASCII chart (log-scale execution time vs rate)."""
    series: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        series.setdefault(p.policy, []).append((p.rate, p.execution_time_s))
    for pts in series.values():
        pts.sort()
    return ascii_chart(
        series,
        title="Fig 10a: execution time (s, log scale) vs injection rate",
        log_y=True,
    )


def pareto_chart(rows: Sequence[Mapping]) -> str:
    """Campaign cells on the makespan / energy minimization plane.

    Frontier members (computed via :func:`repro.dse.frontier.frontier_rows`
    when rows lack a ``pareto`` flag) are drawn with the first marker,
    dominated designs with the second.
    """
    from repro.dse.frontier import X_METRIC, Y_METRIC, frontier_rows

    rows = list(rows)
    if rows and "pareto" not in rows[0]:
        rows = frontier_rows(rows)
    series: dict[str, list[tuple[float, float]]] = {
        "frontier": [], "dominated": [],
    }
    for row in rows:
        x, y = row.get(X_METRIC), row.get(Y_METRIC)
        if not isinstance(x, (int, float)) or not isinstance(y, (int, float)):
            continue
        series["frontier" if row.get("pareto") else "dominated"].append(
            (float(x), float(y))
        )
    if not series["dominated"]:
        del series["dominated"]
    return ascii_chart(
        series, title=f"Campaign Pareto plane ({X_METRIC} vs {Y_METRIC})"
    )


def fig11_chart(points, configs: Sequence[str] | None = None) -> str:
    """Fig. 11 as an ASCII chart (execution time vs rate per config)."""
    series: dict[str, list[tuple[float, float]]] = {}
    for p in points:
        if configs is not None and p.config not in configs:
            continue
        series.setdefault(p.config, []).append((p.rate, p.execution_time_s))
    for pts in series.values():
        pts.sort()
    return ascii_chart(
        series,
        title="Fig 11: execution time (s) vs injection rate",
    )
