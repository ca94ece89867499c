"""Command line of the measurement spine.

``--workload NAME`` measures one workload in this process and prints one
JSON result object as the last line of standard output (the contract in
``BENCHMARK.json``).  Without it, all eight workloads run one at a time,
each in a fresh child process, untraced then traced, and one result
document is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro import core as core_select

from benchmarks.spine import spec
from benchmarks.spine.measure import run_traced, run_untraced
from benchmarks.spine.workloads import make_workloads, sizes

DEFAULT_OUT = ".spine_out"
LAUNCHER = Path(__file__).with_name("run.py")


def detail_path(out: Path, workload: str, trace: int) -> Path:
    return out / f"{workload}.trace{trace}.json"


def _format_metrics(metrics: dict[str, dict[str, Any]]) -> str:
    lines = []
    for name, stat in metrics.items():
        line = f"  {name:<40} {stat['value']:>14.6g} {stat['unit']}"
        if "q1" in stat:
            line += f"   [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']}]"
        lines.append(line)
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: int, out: Path) -> int:
    """Measure one workload here; returns the process exit code."""
    out.mkdir(parents=True, exist_ok=True)
    workload = make_workloads()[name]
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out))
    try:
        if trace:
            result = run_traced(workload, seed, workdir,
                                out / f"trace_{name}.json")
        else:
            result = run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(detail_path(out, name, trace), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    if trace:
        printed = result["per_layer"]
        contract = [m.name for m in spec.PER_LAYER]
    else:
        printed = {**result["end_to_end"], **result["derived"],
                   "host_speed": result["host_speed"]}
        contract = [m.name for m in spec.END_TO_END]
    print(f"{name} (seed {seed}, trace {trace}, core "
          f"{core_select.selected_core()})")
    print(_format_metrics(printed))
    for problem in result["problems"]:
        print(f"  MISMATCH: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": printed[n]["value"], "unit": printed[n]["unit"]}
            for n in contract
        },
    }))
    return 0 if result["correct"] else 1


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5, cwd=LAUNCHER.parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int, seconds: float) -> dict[str, Any]:
    """What a result document must share with another to be comparable."""
    return {
        "schema": spec.SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": seed,
        "run_seconds": seconds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "git_commit": _git_commit(),
        "core": core_select.core_info(),
        "sizes": sizes(),
        "bounds": {m.name: m.bound for m in spec.END_TO_END + spec.DERIVED},
    }


def _run_child(argv: list[str]) -> int:
    """One workload in a fresh process, so that peak RSS and import state
    are its own; returns the exit code."""
    return subprocess.run([sys.executable, str(LAUNCHER), *argv]).returncode


def run_all(seed: int, seconds: float, out: Path,
            traces: tuple[int, ...] = (0, 1)) -> dict[str, Any]:
    """Every workload in its own child process, untraced then traced."""
    out.mkdir(parents=True, exist_ok=True)
    doc = provenance(seed, seconds)
    doc["workloads"] = {}
    for name, why in spec.WORKLOADS.items():
        entry: dict[str, Any] = {
            "why": why, "problems": [], "attempted": 0, "failed": 0,
        }
        for trace in traces:
            detail_path(out, name, trace).unlink(missing_ok=True)
            code = _run_child([
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ])
            with open(detail_path(out, name, trace), encoding="utf-8") as fh:
                result = json.load(fh)
            if code != 0 and result["correct"]:
                raise RuntimeError(f"{name}: child exited {code}")
            entry["problems"] += result["problems"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            if trace:
                entry["per_layer"] = result["per_layer"]
                entry["trace_file"] = result["trace_file"]
            else:
                entry["sim"] = result["sim"]
                entry["host_speed"] = result["host_speed"]
                entry["end_to_end"] = {
                    **result["end_to_end"], **result["derived"]
                }
        doc["workloads"][name] = entry

    digests = {n: doc["workloads"][n]["sim"]["rows_sha256"] for n in spec.SWEEPS}
    if len(set(digests.values())) != 1:
        for name in spec.SWEEPS:
            doc["workloads"][name]["problems"].append(
                f"rows differ across executors: {digests}"
            )
    for entry in doc["workloads"].values():  # totals over both runs
        metrics = entry["end_to_end"]
        metrics["sim_mismatches"]["value"] = len(entry["problems"])
        metrics["failed_share"]["value"] = entry["failed"] / entry["attempted"]
        entry["correct"] = not entry["problems"] and entry["failed"] == 0
    doc["correct"] = all(e["correct"] for e in doc["workloads"].values())
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.spine", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(DEFAULT_OUT),
                        help="directory for result, detail and trace files")
    args = parser.parse_args(argv)

    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, args.trace,
                       args.out)
    doc = run_all(args.seed, args.seconds, args.out)
    path = args.out / time.strftime("spine_%Y%m%dT%H%M%S.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"result document: {path} (core {doc['core']['variant']}, "
          f"{'all correct' if doc['correct'] else 'MISMATCHES'})")
    return 0 if doc["correct"] else 1
