"""The measurement protocol for one workload in one process.

An untraced run gives the end-to-end numbers: set-ups are timed back to
back first (which also warms the import and build paths), then
repetitions are timed back to back for ``seconds`` seconds (at least
``MIN_REPS``), each a fresh set-up followed by the timed call, and medians
are reported with quartiles and sample counts.  There is no discarded
warm-up repetition: the driver's time cap has no room for one and the
first repetition measures no slower than the others (README, "Sizes").
A traced run gives the per-layer
numbers: a plain repetition on either side of one with the benchmark's
proxies in place, then the micro-probes.

``wall_s``, ``cpu_s`` and ``setup_host_s`` are plain host seconds, as the
clock read them.  ``wall_ref_s``, ``cpu_ref_s`` and ``setup_s``, the
metrics the contract gates, are the same samples at the reference host
speed (see :mod:`benchmarks.spine.hostspeed`): a shared host's speed
changes by more than any bound between one run and the next.

Peak RSS is the process's own high-water mark, which is why every
workload runs in a process of its own.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from repro.perf.rss import peak_rss_bytes

from benchmarks.spine import hostspeed, spec
from benchmarks.spine.probes import run_probes
from benchmarks.spine.trace import Tracer, self_times, write_trace
from benchmarks.spine.workloads import Observation, sizes

MIN_REPS = 3
#: set-ups whose median is ``setup_s`` (each timed repetition gives one)
MIN_SETUPS = 20

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class _Rep:
    """One repetition: host seconds of its set-up and of its timed call."""

    setup_s: float
    wall_s: float
    cpu_s: float
    obs: Observation


def _rep(workload: Any, inputs: dict[str, Any], workdir: Path,
         tracer: Tracer | None = None) -> _Rep:
    gc.collect()
    t0 = perf_counter()
    state = workload.setup(inputs, workdir, tracer)
    setup_s = perf_counter() - t0
    try:
        root = tracer.begin(workload.root) if tracer is not None else None
        c0, t0 = process_time(), perf_counter()
        outcome = workload.run(state)
        wall_s, cpu_s = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.finish(root)
        obs = workload.observe(state, outcome)
    finally:
        workload.teardown(state)
    return _Rep(setup_s, wall_s, cpu_s, obs)


def summarize(samples: list[float], unit: str) -> dict[str, Any]:
    """Median with quartiles, sample count and the samples themselves."""
    stat: dict[str, Any] = {
        "value": statistics.median(samples), "unit": unit,
        "n": len(samples), "samples": samples,
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        stat["q1"], stat["q3"] = q1, q3
    return stat


def diff_keys(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Top-level keys whose values differ between two stat dicts."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def load_reference() -> dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _check_sim(name: str, seed: int, sims: list[dict[str, Any]]) -> list[str]:
    """Pinned simulated statistics that are wrong, one string each.

    Every repetition must agree with the first (determinism); the first
    must equal ``reference.json`` when that file pins this seed and these
    sizes; sweeps must resolve each cell exactly once and a warm pass
    must hit the cache for every cell.
    """
    first = sims[0]
    problems = [
        f"rep {i} differs from rep 0 on {key}"
        for i, sim in enumerate(sims[1:], 1) for key in diff_keys(first, sim)
    ]
    reference = load_reference()
    if reference["seed"] == seed and reference["sizes"] == sizes():
        problems += [
            f"differs from reference.json on {key}"
            for key in diff_keys(reference["workloads"][name], first)
        ]
    if first.get("single_resolution") is False:
        problems.append("a cell has more or fewer than one resolving event")
    if first.get("cache_hit_share", 1.0) != 1.0:
        problems.append("a warm pass missed the cache")
    return problems


def _result(name: str, seed: int, trace: int, obs: list[Observation],
            problems: list[str]) -> dict[str, Any]:
    attempted = sum(o.attempted for o in obs)
    failed = sum(o.failed for o in obs)
    return {
        "schema": spec.SCHEMA,
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "sim": obs[0].sim,
        "problems": problems,
    }


def run_untraced(workload: Any, seed: int, seconds: float,
                 workdir: Path) -> dict[str, Any]:
    """End-to-end numbers for one workload; see the module docstring."""
    inputs = workload.inputs(seed)
    workload.prepare(inputs, workdir)
    setups: list[float] = []
    setup_speeds: list[float] = []
    k0 = hostspeed.kernel()
    while len(setups) < MIN_SETUPS - MIN_REPS:
        gc.collect()  # as before a repetition: no inherited garbage
        t0 = perf_counter()
        state = workload.setup(inputs, workdir)
        setups.append(perf_counter() - t0)
        workload.teardown(state)
        k1 = hostspeed.kernel()
        setup_speeds.append(hostspeed.speed([k0, k1]))
        k0 = k1

    reps: list[_Rep] = []
    speeds: list[float] = []
    before = hostspeed.block()
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        reps.append(_rep(workload, inputs, workdir))
        after = hostspeed.block()
        speeds.append(hostspeed.speed(before + after))
        before = after
    setups += [r.setup_s for r in reps]
    setup_speeds += speeds

    obs = [r.obs for r in reps]
    result = _result(workload.name, seed, 0, obs,
                     _check_sim(workload.name, seed, [o.sim for o in obs]))
    walls = [r.wall_s for r in reps]
    cpus = [r.cpu_s for r in reps]
    work, events = reps[0].obs.work, reps[0].obs.events
    result["end_to_end"] = {
        "wall_ref_s": summarize([w * f for w, f in zip(walls, speeds)], "s"),
        "cpu_ref_s": summarize([c * f for c, f in zip(cpus, speeds)], "s"),
        "setup_s": summarize(
            [t * f for t, f in zip(setups, setup_speeds)], "s"
        ),
        "peak_rss_mb": {"value": peak_rss_bytes() / 1e6, "unit": "MB", "n": 1},
    }
    result["host_speed"] = summarize(speeds, "ratio")
    derived = {
        "wall_s": summarize(walls, "s"),
        "cpu_s": summarize(cpus, "s"),
        "setup_host_s": summarize(setups, "s"),
    }
    if workload.kind == "emulation":
        derived["tasks_per_s"] = summarize([work / w for w in walls], "1/s")
        derived["us_per_event"] = summarize(
            [w * 1e6 / events for w in walls], "us"
        )
    else:
        derived["cells_per_s"] = summarize([work / w for w in walls], "1/s")
    derived["failed_share"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio", "n": 1,
    }
    derived["sim_mismatches"] = {
        "value": len(result["problems"]), "unit": "count", "n": 1,
    }
    result["derived"] = derived
    return result


def run_traced(workload: Any, seed: int, workdir: Path,
               trace_path: Path) -> dict[str, Any]:
    """Per-layer numbers for one workload: a traced rep between two plain
    ones, then the probes.

    The host only ever adds time to a repetition (and the first one is
    cold), so the faster plain repetition is the less disturbed one and
    the tracing overhead is taken against it.
    """
    inputs = workload.inputs(seed)
    workload.prepare(inputs, workdir)
    before = _rep(workload, inputs, workdir)
    tracer = Tracer(workload.name)
    traced = _rep(workload, inputs, workdir, tracer)
    after = _rep(workload, inputs, workdir)
    obs = [before.obs, traced.obs, after.obs]

    columns = tracer.columns()
    layers = self_times(columns)
    root = layers[workload.root]
    problems = _check_sim(workload.name, seed, [o.sim for o in obs])
    problems += [
        f"layer {name} has negative self time"
        for name, layer in layers.items() if layer["self_s"] < -1e-6
    ]
    total_self = sum(layer["self_s"] for layer in layers.values())
    if abs(total_self - root["total_s"]) > 0.01 * root["total_s"]:
        problems.append("layer self times do not sum to the root span")

    metrics = {m.name: 0.0 for m in spec.PER_LAYER}
    metrics.update(workload.layer_metrics(layers, traced.obs))
    metrics["trace.root_s"] = root["total_s"]
    metrics["trace.spans"] = len(tracer.start)
    metrics["trace.overhead_share"] = (
        traced.wall_s / min(before.wall_s, after.wall_s) - 1.0
    )
    metrics.update(run_probes(seed, workdir))
    write_trace(trace_path, workload.name, columns, seed=seed, layers=layers)

    result = _result(workload.name, seed, 1, obs, problems)
    result["per_layer"] = {
        name: {"value": value, "unit": spec.unit_of(name)}
        for name, value in metrics.items()
    }
    result["trace_file"] = trace_path.name
    return result
