"""``python -m benchmarks.spine.selfcheck``: does the benchmark agree with
itself?

Runs the eight workloads twice, back to back, on the same checkout (the
untraced runs only: the end-to-end numbers are what later changes are
gated on) and passes the two documents through :mod:`compare`.  Fails
when any end-to-end metric on any workload is not ``unchanged``, or when
either set saw a failed operation or a simulated-statistics mismatch.
Prints the noise table the README quotes: per metric and workload, the
spread of the repetitions inside each set and the shift between the two
sets' medians.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.spine import spec
from benchmarks.spine.cli import DEFAULT_OUT, run_all
from benchmarks.spine.compare import compare_docs, format_rows, spread


def noise_table(a: dict, b: dict) -> str:
    lines = ["metric / workload: in-set spread A, B (IQR over median), "
             "shift of B's median from A's"]
    for metric in spec.END_TO_END + spec.DERIVED:
        if not metric.bound:
            continue
        lines.append(f"{metric.name} (bound {metric.bound:.0%})")
        for name in spec.WORKLOADS:
            if not spec.defined_on(metric, name):
                continue
            stat_a = a["workloads"][name]["end_to_end"][metric.name]
            stat_b = b["workloads"][name]["end_to_end"][metric.name]
            shift = stat_b["value"] / stat_a["value"] - 1.0
            lines.append(f"  {name:<18} {spread(stat_a):6.1%} "
                         f"{spread(stat_b):6.1%}   {shift:+6.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spine.selfcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path(DEFAULT_OUT))
    args = parser.parse_args(argv)

    docs = []
    for label in ("a", "b"):
        doc = run_all(args.seed, spec.RUN_SECONDS, args.out, traces=(0,))
        with open(args.out / f"selfcheck_{label}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        docs.append(doc)
    rows = compare_docs(*docs)
    print(format_rows(rows))
    print(noise_table(*docs))
    moved = [r for r in rows if r.verdict != "unchanged"]
    for row in moved:
        print(f"NOT UNCHANGED: {row.metric} on {row.workload}: {row.verdict}")
    incorrect = [d for d in docs if not d["correct"]]
    if incorrect:
        print(f"{len(incorrect)} set(s) saw a failed operation or a mismatch")
    ok = not moved and not incorrect
    print("selfcheck: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
