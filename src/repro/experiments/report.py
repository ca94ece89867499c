"""Regenerate and check every paper artifact into ``artifacts/``.

Usage::

    python -m repro.experiments.report [--quick] [--outdir artifacts]
                                       [--only NAME [NAME ...]]

This is the one way to reproduce the paper: Tables I–II, Figs. 9–11, the
ablations and Case Study 4.  Each artifact file holds the regenerated
table/series; each ``generate_*`` returns its violations of the paper's
claims (the ``check_*`` functions), the figure, ablation and CS4 files end
with a "shape violations: […]" line, and the exit status is 1 when any
artifact has a violation.  EXPERIMENTS.md records the paper-vs-measured
comparison.  The Fig. 9–11 sweeps run on a process pool as wide as the
CPUs this process may use.  On a 2-CPU x86-64 Linux host a full run takes
≈117 s on one CPU and ≈60 s on both; ``--quick`` runs reduced sweeps
(fewer iterations/rates/configs) in ≈45 s and ≈24 s.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path


def _jobs() -> int:
    """Process-pool width for the sweeps: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def _write(outdir: Path, name: str, content: str) -> None:
    path = outdir / name
    path.write_text(content + "\n", encoding="utf-8")
    print(f"  wrote {path}")


def _write_checked(
    outdir: Path, name: str, content: str, violations: list[str]
) -> list[str]:
    _write(outdir, name, content + f"\nshape violations: {violations!r}")
    return violations


def generate_table_i(outdir: Path) -> list[str]:
    from repro.experiments.case_study_2 import (
        check_table_i, render_table_i, run_table_i,
    )

    rows = run_table_i()
    _write(outdir, "table_i.txt", render_table_i(rows))
    return check_table_i(rows)


def generate_table_ii(outdir: Path) -> list[str]:
    from repro.experiments.case_study_2 import (
        check_table_ii, render_table_ii, run_table_ii,
    )

    specs = run_table_ii()
    _write(outdir, "table_ii.txt", render_table_ii(specs))
    return check_table_ii(specs)


def generate_fig9(outdir: Path, quick: bool) -> list[str]:
    from repro.experiments.case_study_1 import (
        check_fig9_shape, render_fig9, run_fig9,
    )

    rows = run_fig9(iterations=10 if quick else 50, jobs=_jobs())
    return _write_checked(outdir, "fig9.txt", render_fig9(rows),
                          check_fig9_shape(rows))


def generate_fig10(outdir: Path, quick: bool) -> list[str]:
    from repro.analysis.figures import fig10_chart
    from repro.experiments.case_study_2 import (
        check_fig10_shape, render_fig10, run_fig10,
    )
    from repro.experiments.workloads import TABLE_II_RATES

    rates = TABLE_II_RATES[:3] if quick else TABLE_II_RATES
    points = run_fig10(rates=rates, jobs=_jobs())
    content = render_fig10(points) + "\n\n" + fig10_chart(points)
    return _write_checked(outdir, "fig10.txt", content,
                          check_fig10_shape(points))


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
    points = run_fig11(configs=configs, rates=rates, jobs=_jobs())
    content = render_fig11(points) + "\n\n" + fig11_chart(
        points, configs=("0BIG+3LTL", "3BIG+2LTL", "4BIG+1LTL", "4BIG+3LTL")
    )
    return _write_checked(outdir, "fig11.txt", content,
                          check_fig11_shape(points))


def generate_ablations(outdir: Path) -> list[str]:
    from repro.experiments.ablations import (
        check_ablations_shape, render_ablations, run_ablations,
    )

    result = run_ablations()
    return _write_checked(outdir, "ablations.txt", render_ablations(result),
                          check_ablations_shape(result))


def generate_cs4(outdir: Path, quick: bool) -> list[str]:
    from repro.experiments.case_study_4 import (
        check_cs4_shape, render_case_study_4, run_case_study_4,
    )

    result = run_case_study_4(n_samples=96 if quick else 256)
    return _write_checked(outdir, "case_study_4.txt",
                          render_case_study_4(result), check_cs4_shape(result))


#: artifact name -> generator(outdir, quick); the tables and the ablations
#: are small enough to ignore ``quick``
GENERATORS = {
    "table_i": lambda outdir, quick: generate_table_i(outdir),
    "table_ii": lambda outdir, quick: generate_table_ii(outdir),
    "fig9": generate_fig9,
    "fig10": generate_fig10,
    "fig11": generate_fig11,
    "ablations": lambda outdir, quick: generate_ablations(outdir),
    "cs4": generate_cs4,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps (≈24 s instead of ≈60 s on "
                             "two CPUs, ≈45 s instead of ≈117 s on one)")
    parser.add_argument("--outdir", default="artifacts")
    parser.add_argument("--only", nargs="+", choices=sorted(GENERATORS),
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
