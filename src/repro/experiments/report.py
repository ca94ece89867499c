"""Regenerate every paper artifact into ``artifacts/``.

Usage::

    python -m repro.experiments.report [--quick] [--outdir artifacts]

``--quick`` runs reduced sweeps (fewer iterations/rates/configs) so the
whole report finishes in a few minutes; the default reproduces the paper's
resolution where practical.  Each artifact file holds the regenerated
table/series plus the shape-check verdict against the paper's qualitative
claims; EXPERIMENTS.md records the paper-vs-measured comparison.  Each
``generate_*`` returns its shape violations (tables have none), and the
exit status is 1 when any artifact has one.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def _write(outdir: Path, name: str, content: str) -> None:
    path = outdir / name
    path.write_text(content + "\n", encoding="utf-8")
    print(f"  wrote {path}")


def generate_table_i(outdir: Path) -> list[str]:
    from repro.experiments.case_study_2 import render_table_i, run_table_i

    _write(outdir, "table_i.txt", render_table_i(run_table_i()))
    return []


def generate_table_ii(outdir: Path) -> list[str]:
    from repro.analysis.tables import format_table
    from repro.experiments.workloads import TABLE_II_COUNTS, table_ii_workload

    rows = []
    for rate in sorted(TABLE_II_COUNTS):
        counts = table_ii_workload(rate).counts()
        rows.append([rate, counts["pulse_doppler"], counts["range_detection"],
                     counts["wifi_tx"], counts["wifi_rx"]])
    _write(
        outdir,
        "table_ii.txt",
        format_table(
            ["rate", "pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"],
            rows,
            title="Table II: instance counts per injection rate",
        ),
    )
    return []


def generate_fig9(outdir: Path, quick: bool) -> list[str]:
    from repro.experiments.case_study_1 import (
        check_fig9_shape, render_fig9, run_fig9,
    )

    rows = run_fig9(iterations=10 if quick else 50)
    violations = check_fig9_shape(rows)
    content = render_fig9(rows)
    content += f"\nshape violations: {violations!r}"
    _write(outdir, "fig9.txt", content)
    return violations


def generate_fig10(outdir: Path, quick: bool) -> list[str]:
    from repro.analysis.figures import fig10_chart
    from repro.experiments.case_study_2 import (
        check_fig10_shape, render_fig10, run_fig10,
    )
    from repro.experiments.workloads import TABLE_II_RATES

    rates = TABLE_II_RATES[:3] if quick else TABLE_II_RATES
    points = run_fig10(rates=rates)
    violations = check_fig10_shape(points)
    content = render_fig10(points)
    content += "\n\n" + fig10_chart(points)
    content += f"\nshape violations: {violations!r}"
    _write(outdir, "fig10.txt", content)
    return violations


def generate_fig11(outdir: Path, quick: bool) -> list[str]:
    from repro.analysis.figures import fig11_chart
    from repro.experiments.case_study_3 import (
        check_fig11_shape, render_fig11, run_fig11,
    )
    from repro.experiments.workloads import FIG11_CONFIGS

    if quick:
        configs = ("0BIG+3LTL", "2BIG+2LTL", "3BIG+2LTL",
                   "4BIG+1LTL", "4BIG+2LTL", "4BIG+3LTL")
        rates: tuple[float, ...] = (4.0, 10.0, 18.0)
    else:
        configs = FIG11_CONFIGS
        rates = (4.0, 8.0, 12.0, 18.0)
    points = run_fig11(configs=configs, rates=rates)
    content = render_fig11(points)
    content += "\n\n" + fig11_chart(
        points, configs=("0BIG+3LTL", "3BIG+2LTL", "4BIG+1LTL", "4BIG+3LTL")
    )
    violations = check_fig11_shape(points)
    content += f"\nshape violations: {violations!r}"
    _write(outdir, "fig11.txt", content)
    return violations


def generate_cs4(outdir: Path, quick: bool) -> list[str]:
    from repro.experiments.case_study_4 import (
        check_cs4_shape, render_case_study_4, run_case_study_4,
    )

    result = run_case_study_4(n_samples=96 if quick else 256)
    violations = check_cs4_shape(result)
    content = render_case_study_4(result)
    content += f"\nshape violations: {violations!r}"
    _write(outdir, "case_study_4.txt", content)
    return violations


GENERATORS = {
    "table_i": lambda outdir, quick: generate_table_i(outdir),
    "table_ii": lambda outdir, quick: generate_table_ii(outdir),
    "fig9": generate_fig9,
    "fig10": generate_fig10,
    "fig11": generate_fig11,
    "cs4": generate_cs4,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps (minutes instead of tens)")
    parser.add_argument("--outdir", default="artifacts")
    parser.add_argument("--only", nargs="*", choices=sorted(GENERATORS),
                        help="generate only the named artifacts")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = args.only or list(GENERATORS)
    failed: list[str] = []
    for name in names:
        t0 = time.time()
        print(f"generating {name} ...")
        if GENERATORS[name](outdir, args.quick):
            failed.append(name)
        print(f"  {name} done in {time.time() - t0:.1f}s")
    if failed:
        print(f"shape check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
