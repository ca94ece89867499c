"""``python -m benchmarks.spine.compare A.json B.json``: per (metric,
workload) verdict between two result documents of the spine.

A is the base (the parent commit), B the change.  Every end-to-end
metric gets one of four verdicts on every workload it is defined on:

* ``regressed``  – B's median is worse than A's by more than the bound;
* ``improved``   – B's median is better than A's by more than the bound;
* ``unchanged``  – the medians are within the bound of each other;
* ``unresolved`` – the repetitions of one side spread (distance between
  their quartiles over their median) wider than the bound, so a difference
  of the bound's size cannot be seen – unless every repetition of one side
  beats every repetition of the other.

Repetitions inside one run share the host's state, so their spread
understates run-to-run spread; a claim of a gain still needs the paired
runs the choosing-metrics guide asks for.  This table only screens.

Metrics that must not move at all (``failed_share``, ``sim_mismatches``)
regress on any increase.  Documents measured on different cores, CPU
counts, seeds, sizes or run lengths are refused: their numbers do not
compare.  Every ratio is printed beside its base.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any

from benchmarks.spine import spec

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


class Incomparable(ValueError):
    """The two documents were not measured under the same conditions."""


@dataclass(frozen=True)
class Row:
    metric: str
    workload: str
    base: float
    new: float
    unit: str
    verdict: str

    @property
    def ratio(self) -> float:
        return self.new / self.base if self.base else float("inf")


def check_comparable(a: dict[str, Any], b: dict[str, Any]) -> None:
    same = {
        "schema": lambda d: d["schema"],
        "core variant": lambda d: d["core"]["variant"],
        "nproc": lambda d: d["host"]["nproc"],
        "seed": lambda d: d["seed"],
        "run_seconds": lambda d: d["run_seconds"],
        "workload sizes": lambda d: d["sizes"],
    }
    for what, get in same.items():
        if get(a) != get(b):
            raise Incomparable(
                f"{what} differs: {get(a)!r} vs {get(b)!r}; refusing to compare"
            )


def spread(stat: dict[str, Any]) -> float:
    """Distance between a metric's quartiles as a share of its median (0
    for a single reading, which has no quartiles to judge it by)."""
    if "q1" not in stat or not stat["value"]:
        return 0.0
    return (stat["q3"] - stat["q1"]) / abs(stat["value"])


def verdict(metric: spec.Metric, a: dict[str, Any], b: dict[str, Any]) -> str:
    """The verdict for one metric on one workload; see the module docstring."""
    base, new = a["value"], b["value"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new - base)  # > 0 when B is worse, in the metric's unit
    if not metric.bound:
        return ("regressed" if worse_by > 0
                else "improved" if worse_by < 0 else "unchanged")
    runs_a = a.get("samples", [base])
    runs_b = b.get("samples", [new])
    separated = max(runs_b) < min(runs_a) or max(runs_a) < min(runs_b)
    if max(spread(a), spread(b)) > metric.bound and not separated:
        return "unresolved"
    if worse_by > metric.bound * abs(base):
        return "regressed"
    if -worse_by > metric.bound * abs(base):
        return "improved"
    return "unchanged"


def compare_docs(a: dict[str, Any], b: dict[str, Any]) -> list[Row]:
    """One row per (end-to-end metric, workload) defined in both documents."""
    check_comparable(a, b)
    rows = []
    for metric in spec.END_TO_END + spec.DERIVED:
        for name in spec.WORKLOADS:
            if not spec.defined_on(metric, name):
                continue
            stat_a = a["workloads"][name]["end_to_end"][metric.name]
            stat_b = b["workloads"][name]["end_to_end"][metric.name]
            rows.append(Row(
                metric.name, name, stat_a["value"], stat_b["value"],
                metric.unit, verdict(metric, stat_a, stat_b),
            ))
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = []
    metric = None
    for row in rows:
        if row.metric != metric:
            metric = row.metric
            lines.append(f"{metric} [{row.unit}]")
        lines.append(
            f"  {row.workload:<18} base {row.base:>12.6g}   new "
            f"{row.new:>12.6g}   new/base {row.ratio:>7.3f} of "
            f"{row.base:.6g}   {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spine.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="result document of the parent (A)")
    parser.add_argument("new", help="result document of the change (B)")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    try:
        rows = compare_docs(*docs)
    except Incomparable as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(f"base {docs[0]['git_commit'][:12]} ({args.base})  ->  "
          f"new {docs[1]['git_commit'][:12]} ({args.new}), "
          f"core {docs[0]['core']['variant']}, seed {docs[0]['seed']}")
    print(format_rows(rows))
    print("host speed while measuring (1.0 = quiet reference host; plain "
          "host seconds move with it, the *_ref_s metrics and setup_s "
          "should not)")
    for name in spec.WORKLOADS:
        speeds = [d["workloads"][name]["host_speed"]["value"] for d in docs]
        print(f"  {name:<18} host speed {speeds[0]:.2f} -> {speeds[1]:.2f}")
    counts = {v: sum(r.verdict == v for r in rows) for v in VERDICTS}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
