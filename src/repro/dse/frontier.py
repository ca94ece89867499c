"""Pareto analysis and comparison rendering over campaign result sets.

The paper's DSE question is rarely "which design is fastest" alone —
Case Study 1 trades execution time against area, and the energy numbers
of Fig. 9's power model make makespan-vs-energy the canonical plane.
:func:`pareto_frontier` finds the non-dominated set under minimization
of both axes; the render helpers turn a campaign into the tables the
experiment harnesses print.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any


def pareto_frontier(points: Sequence[tuple[float, float]]) -> list[int]:
    """Indices of the non-dominated points, minimizing both coordinates.

    A point is dominated when another point is <= on both axes and
    strictly < on at least one.  Duplicate points are all kept (none
    strictly improves on the other).  Returned indices are sorted by
    (x, y) along the frontier.
    """
    order = sorted(range(len(points)), key=lambda i: (points[i][0], points[i][1]))
    frontier: list[int] = []
    best_y = float("inf")
    prev_x: float | None = None
    for i in order:
        x, y = points[i]
        if y < best_y or (y == best_y and x == prev_x):
            frontier.append(i)
            best_y = y
            prev_x = x
    return frontier


#: the Pareto plane of every campaign: makespan against energy, both minimized
X_METRIC = "makespan_ms"
Y_METRIC = "total_energy_j"


def frontier_rows(rows: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Annotate campaign rows with Pareto membership on the makespan /
    energy plane.

    Rows missing either metric (failed cells) are marked non-frontier.
    Returns new dicts with ``pareto`` (bool) added, preserving order.
    """
    usable: list[int] = []
    points: list[tuple[float, float]] = []
    for i, row in enumerate(rows):
        xv, yv = row.get(X_METRIC), row.get(Y_METRIC)
        if isinstance(xv, (int, float)) and isinstance(yv, (int, float)):
            usable.append(i)
            points.append((float(xv), float(yv)))
    members = {usable[j] for j in pareto_frontier(points)}
    return [
        {**row, "pareto": i in members} for i, row in enumerate(rows)
    ]


def render_frontier(rows: Sequence[dict[str, Any]]) -> str:
    """Frontier members as a table, sorted along the frontier."""
    from repro.analysis.tables import format_table

    annotated = [r for r in frontier_rows(rows) if r["pareto"]]
    annotated.sort(key=lambda r: (r[X_METRIC], r[Y_METRIC]))
    body = [
        [r.get("label", r.get("cell_id", "?")), r[X_METRIC], r[Y_METRIC]]
        for r in annotated
    ]
    return format_table(
        ["cell", X_METRIC, Y_METRIC], body,
        title="Pareto frontier (minimize both axes)",
    )
