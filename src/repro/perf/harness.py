"""Measurement harness: warmup + repetitions → ``BENCH_<timestamp>.json``.

The report schema (``dssoc-bench/v2``) is documented in
``docs/performance.md``; comparing two commits is the measurement
spine's job (``benchmarks/spine/compare.py``).  Wall times are reported
as the median across repetitions (min and all samples are kept for
inspection); events/sec and tasks/sec derive from the median so one
noisy rep cannot flatter or slander a commit.  Peak RSS is the max across repetitions — it is a
high-water mark, so the worst rep is the honest number.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import core as core_select
from repro.common.errors import ReproError
from repro.perf.scenarios import get_scenario

SCHEMA = "dssoc-bench/v2"
DEFAULT_OUT_DIR = "benchmarks/results"
#: the checkout whose commit a report names
_SOURCE_DIR = Path(__file__).resolve().parent

#: stats that must be bit-identical across repetitions and between the
#: pure and compiled cores (wall times and memory are the only things
#: allowed to differ)
DETERMINISTIC_KEYS = (
    "events", "tasks", "apps_completed", "makespan_ms", "sched_invocations",
    "apps_injected", "apps_dropped",
)


def run_scenario(name: str, *, reps: int = 3, warmup: int = 1,
                 quick: bool = False) -> dict:
    """Run one scenario ``warmup + reps`` times; return its report entry."""
    if reps < 1:
        raise ReproError("bench needs at least one repetition")
    scenario = get_scenario(name)
    for _ in range(warmup):
        scenario.run_once(quick=quick)
    samples = [scenario.run_once(quick=quick) for _ in range(reps)]
    walls = [s["wall_s"] for s in samples]
    wall_median = statistics.median(walls)
    ref = samples[0]
    for s in samples[1:]:
        for key in DETERMINISTIC_KEYS:
            if s[key] != ref[key]:
                raise ReproError(
                    f"scenario {name!r} is nondeterministic across "
                    f"repetitions ({key}: {ref[key]!r} then {s[key]!r})"
                )
    entry = dict(scenario.spec(quick=quick))
    entry.update(
        {
            "reps": reps,
            "warmup": warmup,
            "wall_s_median": round(wall_median, 6),
            "wall_s_min": round(min(walls), 6),
            "wall_s_all": [round(w, 6) for w in walls],
            "events": ref["events"],
            "events_per_sec": round(ref["events"] / wall_median, 1),
            "tasks": ref["tasks"],
            "tasks_per_sec": round(ref["tasks"] / wall_median, 1),
            "apps_completed": ref["apps_completed"],
            "apps_injected": ref["apps_injected"],
            "apps_degraded": ref["apps_degraded"],
            "apps_dropped": ref["apps_dropped"],
            "makespan_ms": ref["makespan_ms"],
            "sched_invocations": ref["sched_invocations"],
            "peak_rss_bytes": max(s["peak_rss_bytes"] for s in samples),
        }
    )
    return entry


def run_suite(names: list[str], *, reps: int = 3, warmup: int = 1,
              quick: bool = False, progress=None) -> dict:
    """Run the named scenarios and return the full report document."""
    if quick:
        reps, warmup = min(reps, 1), 0
    scenarios: dict[str, dict] = {}
    for i, name in enumerate(names):
        if progress is not None:
            progress(i, len(names), name)
        scenarios[name] = run_scenario(
            name, reps=reps, warmup=warmup, quick=quick
        )
    return _make_doc(scenarios, quick=quick)


def _make_doc(scenarios: dict[str, dict], *, quick: bool) -> dict:
    total_wall = sum(s["wall_s_median"] for s in scenarios.values())
    total_events = sum(s["events"] for s in scenarios.values())
    total_tasks = sum(s["tasks"] for s in scenarios.values())
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": _platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "core": core_select.core_info(),
        "git_commit": _git_commit(),
        "scenarios": scenarios,
        "totals": {
            "wall_s": round(total_wall, 6),
            "events": total_events,
            "events_per_sec": round(total_events / total_wall, 1)
            if total_wall > 0
            else 0.0,
            "tasks": total_tasks,
            "tasks_per_sec": round(total_tasks / total_wall, 1)
            if total_wall > 0
            else 0.0,
        },
    }


def run_suite_compare_cores(names: list[str], *, reps: int = 3,
                            warmup: int = 1, quick: bool = False,
                            progress=None) -> tuple[dict, dict]:
    """Run the named scenarios under both cores; return (pure_doc,
    compiled_doc).

    The cores are interleaved per scenario (pure then compiled back to
    back) so machine drift hits both sides equally, and every scenario's
    deterministic stats are asserted bit-identical between them — a wall
    time may differ, the emulation must not.  Raises :class:`ReproError`
    when the compiled extension is not importable: an explicit
    comparison request cannot be satisfied by a silent fallback.
    """
    if quick:
        reps, warmup = min(reps, 1), 0
    pure: dict[str, dict] = {}
    compiled: dict[str, dict] = {}
    for i, name in enumerate(names):
        if progress is not None:
            progress(i, len(names), name)
        with core_select.forced(core_select.CORE_PURE):
            pure[name] = run_scenario(name, reps=reps, warmup=warmup,
                                      quick=quick)
        with core_select.forced(core_select.CORE_COMPILED):
            compiled[name] = run_scenario(name, reps=reps, warmup=warmup,
                                          quick=quick)
        for key in DETERMINISTIC_KEYS:
            if pure[name][key] != compiled[name][key]:
                raise ReproError(
                    f"scenario {name!r}: cores disagree on {key} "
                    f"(pure={pure[name][key]!r}, "
                    f"compiled={compiled[name][key]!r})"
                )
    with core_select.forced(core_select.CORE_PURE):
        pure_doc = _make_doc(pure, quick=quick)
    with core_select.forced(core_select.CORE_COMPILED):
        compiled_doc = _make_doc(compiled, quick=quick)
    return pure_doc, compiled_doc


def format_core_compare(pure_doc: dict, compiled_doc: dict) -> str:
    """Per-scenario speedup table for a compare-cores run."""
    from repro.analysis.tables import format_table

    rows = []
    for name, p in pure_doc["scenarios"].items():
        c = compiled_doc["scenarios"][name]
        speedup = (
            p["wall_s_median"] / c["wall_s_median"]
            if c["wall_s_median"] > 0
            else float("inf")
        )
        rows.append(
            [
                name,
                f"{p['wall_s_median']:.3f}",
                f"{c['wall_s_median']:.3f}",
                f"{speedup:.2f}x",
            ]
        )
    build = compiled_doc.get("core", {}).get("build", {})
    toolchain = build.get("toolchain", "?")
    return format_table(
        ["scenario", "pure wall s", "compiled wall s", "speedup"],
        rows,
        title=f"core compare: pure -> compiled ({toolchain})",
    )


def write_report(doc: dict, out_dir: str | Path = DEFAULT_OUT_DIR,
                 *, tag: str = "") -> Path:
    """Persist a report as ``BENCH_<timestamp>[_<tag>].json``.

    ``tag`` distinguishes reports written in the same invocation (the
    compare-cores pair uses ``pure``/``compiled``).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    suffix = f"_{tag}" if tag else ""
    path = out / f"BENCH_{stamp}{suffix}.json"
    n = 1
    while path.exists():  # same-second reruns
        path = out / f"BENCH_{stamp}{suffix}_{n}.json"
        n += 1
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def format_report(doc: dict) -> str:
    """Human-readable table for one report."""
    from repro.analysis.tables import format_table

    rows = []
    for name, s in doc["scenarios"].items():
        peak = s["peak_rss_bytes"]
        rows.append(
            [
                name,
                s["policy"],
                s["config"],
                f"{s['wall_s_median']:.3f}",
                f"{s['events_per_sec']:,.0f}",
                f"{s['tasks_per_sec']:,.0f}",
                s["tasks"],
                f"{s['makespan_ms']:.2f}",
                f"{peak / 1e6:,.0f}" if peak else "-",
            ]
        )
    title = f"dssoc bench — {doc['created']}"
    if doc.get("quick"):
        title += " (quick)"
    return format_table(
        ["scenario", "policy", "config", "wall s", "events/s", "tasks/s",
         "tasks", "makespan ms", "peak MB"],
        rows,
        title=title,
    )


def _git_commit() -> str:
    """HEAD's full sha, suffixed ``-dirty`` when tracked files differ
    from it (a report taken on an uncommitted tree measured that tree,
    not HEAD); ``"unknown"`` outside a git checkout.  ``--exclude=*``
    keeps a tag name from standing in for the sha."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude=*"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=_SOURCE_DIR,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"
