"""The eight workloads: inputs from a seed, set-up, the timed call, checks.

Sizes are module constants chosen on a 2-vCPU host with the pure core so
that one timed repetition takes a little over three seconds (see README
for the resizing rule).  Tests replace them with tiny values; the command line has
no size flag.

Every timing taken around these calls is *host* time.  Simulated
statistics are deterministic for a seed and serve only as the
correctness check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib.coordinator import merge_once
from repro.dse.distrib.net.client import NetTransport
from repro.dse.distrib.net.server import SweepServer
from repro.dse.distrib.queue import DEFAULT_LEASE_TTL_S, write_manifest
from repro.dse.distrib.transport import FsTransport
from repro.dse.distrib.worker import run_worker
from repro.dse.grid import SweepCell, SweepGrid, build_workload, validation_sweep
from repro.dse.runner import CellResult, run_campaign
from repro.runtime.backends.virtual import VirtualBackend
from repro.runtime.emulation import Emulation

from benchmarks.spine.trace import Proxy, Tracer, layer_sum, unwrap

# -- sizes ------------------------------------------------------------------------

BURST_APPS = {"range_detection": 60, "wifi_tx": 45, "pulse_doppler": 15}
STEADY_RATE_PER_MS = 4.57
STEADY_FRAME_MS = 250.0
POISSON_RATE_PER_MS = 4.0
POISSON_APPS = 9500
FLASH_BASE_RATE_PER_MS = 1.0
FLASH_DURATION_MS = 3400.0
#: (start_ms, duration_ms, rate_per_ms)
FLASH_BURSTS = (
    (300.0, 150.0, 10.0), (900.0, 100.0, 8.0), (1500.0, 150.0, 9.0),
    (2100.0, 100.0, 10.0), (2700.0, 150.0, 8.0),
)
FLASH_DEADLINE_US = 2000.0
FLASH_MAX_PENDING = 64
GRID_CONFIGS = (
    "1C+0F", "1C+1F", "1C+2F", "2C+0F", "2C+1F", "2C+2F",
    "3C+0F", "3C+1F", "3C+2F",
)
GRID_POLICIES = ("frfs", "met", "eft", "heft")
GRID_SEEDS = 8
#: alphabetical on purpose: manifest.json and the wire frames are written
#: with sort_keys, which reorders a validation workload's apps, and app
#: order is part of a cell's identity
GRID_APPS = {"range_detection": 1, "wifi_tx": 1}
WARM_PASSES = 100

_SDR_MIX = {"range_detection": 2.0, "wifi_tx": 1.0, "wifi_rx": 1.0}

ROOT_EMULATION = "backend.run"
ROOT_SWEEP = "campaign"


def sizes() -> dict[str, Any]:
    """The size constants in force, recorded in every result document."""
    return {
        "burst_apps": dict(BURST_APPS),
        "steady_rate_per_ms": STEADY_RATE_PER_MS,
        "steady_frame_ms": STEADY_FRAME_MS,
        "poisson_rate_per_ms": POISSON_RATE_PER_MS,
        "poisson_apps": POISSON_APPS,
        "flash_base_rate_per_ms": FLASH_BASE_RATE_PER_MS,
        "flash_duration_ms": FLASH_DURATION_MS,
        "flash_bursts": [list(b) for b in FLASH_BURSTS],
        "flash_deadline_us": FLASH_DEADLINE_US,
        "flash_max_pending": FLASH_MAX_PENDING,
        "grid_configs": list(GRID_CONFIGS),
        "grid_policies": list(GRID_POLICIES),
        "grid_seeds": GRID_SEEDS,
        "grid_apps": dict(GRID_APPS),
        "warm_passes": WARM_PASSES,
    }


@dataclass
class Observation:
    """What one repetition produced, read after the clock stopped."""

    #: simulated statistics: must repeat exactly for a seed
    sim: dict[str, Any]
    #: emulated tasks (emulation) or cells resolved (sweeps)
    work: int
    #: operations attempted / failed (see README: failed_share)
    attempted: int
    failed: int
    #: DES events fired (emulation only)
    events: int = 0
    #: host-time facts the per-layer metrics need
    host: dict[str, Any] = field(default_factory=dict)


# -- emulation workloads ------------------------------------------------------------


def _burst_eft(seed: int) -> dict[str, Any]:
    return {
        "config": "3C+2F", "policy": "eft", "jitter": True, "seed": seed,
        "qos": None,
        "workload": validation_sweep(BURST_APPS),
    }


def _steady_frfs(seed: int) -> dict[str, Any]:
    return {
        "config": "3C+2F", "policy": "frfs", "jitter": False, "seed": seed,
        "qos": None,
        "workload": {
            "kind": "rate", "rate": STEADY_RATE_PER_MS,
            "time_frame_us": STEADY_FRAME_MS * 1000.0,
        },
    }


def _stream_poisson(seed: int) -> dict[str, Any]:
    return {
        "config": "3C+2F", "policy": "frfs", "jitter": True, "seed": seed,
        "qos": None,
        "workload": {"kind": "arrivals", "spec": {
            "kind": "poisson", "rate_per_ms": POISSON_RATE_PER_MS,
            "apps": {"range_detection": 1.0}, "max_apps": POISSON_APPS,
            "seed": seed * 1000 + 1,
        }},
    }


def _stream_flashcrowd(seed: int) -> dict[str, Any]:
    return {
        "config": "3C+2F", "policy": "eft+edf", "jitter": True, "seed": seed,
        "qos": {
            "deadlines": {"*": FLASH_DEADLINE_US},
            "admission": {"max_pending": FLASH_MAX_PENDING,
                          "policy": "drop-newest"},
        },
        "workload": {"kind": "arrivals", "spec": {
            "kind": "bursty", "rate_per_ms": FLASH_BASE_RATE_PER_MS,
            "apps": dict(_SDR_MIX),
            "bursts": [list(b) for b in FLASH_BURSTS],
            "duration_ms": FLASH_DURATION_MS, "seed": seed * 1000 + 2,
        }},
    }


@dataclass
class _EmulationState:
    session: Any
    backend: VirtualBackend
    counts: dict[str, int]


class EmulationWorkload:
    """One ``VirtualBackend().run(session)`` on inputs derived from the seed."""

    kind = "emulation"
    root = ROOT_EMULATION

    def __init__(self, name: str, describe) -> None:
        self.name = name
        self._describe = describe

    def inputs(self, seed: int) -> dict[str, Any]:
        return self._describe(seed)

    def prepare(self, inputs: dict[str, Any], workdir: Path) -> None:
        """Nothing outlives a repetition."""

    def setup(self, inputs: dict[str, Any], workdir: Path,
              tracer: Tracer | None = None) -> _EmulationState:
        emu = Emulation(
            config=inputs["config"], policy=inputs["policy"],
            jitter=inputs["jitter"], seed=inputs["seed"],
            materialize_memory=False, qos=inputs["qos"],
        )
        session = emu.build_session(build_workload(inputs["workload"]))
        counts = {"passes": 0, "empty": 0, "ready": 0}
        if tracer is not None:
            _wrap_session(session, tracer, counts)
        return _EmulationState(session, VirtualBackend(), counts)

    def run(self, state: _EmulationState) -> Any:
        return state.backend.run(state.session)

    def observe(self, state: _EmulationState, stats: Any) -> Observation:
        stats = unwrap(stats)
        info = state.backend.last_run_info or {}
        sim = {
            "tasks": stats.task_count,
            "events_fired": info.get("events_fired", 0),
            "makespan_ms": round(stats.makespan / 1000.0, 6),
            "sched_invocations": stats.sched_invocations,
            "apps_injected": stats.apps_injected,
            "apps_completed": stats.apps_completed,
            "apps_degraded": stats.apps_degraded,
            "apps_dropped": stats.apps_dropped,
            "pe_busy_us": {
                name: round(usage.busy_time, 3)
                for name, usage in sorted(stats.pe_usage.items())
            },
        }
        settled = (
            stats.apps_completed + stats.apps_degraded + stats.apps_dropped
        )
        return Observation(
            sim=sim,
            work=stats.task_count,
            events=sim["events_fired"],
            attempted=1 + stats.apps_injected,
            failed=stats.apps_injected - settled,
            host=dict(state.counts),
        )

    def teardown(self, state: _EmulationState) -> None:
        """Nothing on disk."""

    def layer_metrics(self, layers: dict[str, dict[str, float]],
                      obs: Observation) -> dict[str, float]:
        sched_s = layer_sum(layers, "schedulers.", "self_s")
        sched_calls = layers.get("schedulers.schedule", {}).get("calls", 0)
        residual_s = layers[ROOT_EMULATION]["self_s"]
        passes = obs.host["passes"]
        return {
            "schedulers.schedule_s": sched_s,
            "schedulers.calls": sched_calls,
            "schedulers.us_per_call": _ratio(sched_s * 1e6, sched_calls),
            "schedulers.empty_pass_share": _ratio(obs.host["empty"], passes),
            "schedulers.ready_len_mean": _ratio(obs.host["ready"], passes),
            "engine_wm.residual_s": residual_s,
            "engine.events": obs.events,
            "engine_wm.us_per_event": _ratio(residual_s * 1e6, obs.events),
            "stats.record_s": layer_sum(layers, "stats.", "self_s"),
            "stats.calls": layer_sum(layers, "stats.", "calls"),
            "source.pop_s": layer_sum(layers, "source.", "self_s"),
            "source.pops": layer_sum(layers, "source.", "calls"),
            "qos.s": layer_sum(layers, "qos.", "self_s"),
            "qos.calls": layer_sum(layers, "qos.", "calls"),
            "qos.dropped": obs.sim["apps_dropped"],
            "perfmodel.s": layer_sum(layers, "perfmodel.", "self_s"),
            "perfmodel.calls": layer_sum(layers, "perfmodel.", "calls"),
            "costmodel.s": layer_sum(layers, "costmodel.", "self_s"),
        }


def _wrap_session(session: Any, tracer: Tracer, counts: dict[str, int]) -> None:
    """Swap the session's public collaborators for timing proxies."""

    def saw_pass(args: tuple, assignments: list) -> None:
        counts["passes"] += 1
        counts["ready"] += len(args[0])
        if not assignments:
            counts["empty"] += 1

    session.scheduler = Proxy(
        session.scheduler, tracer, "schedulers",
        ("schedule", "notify_dispatch", "notify_completion",
         "notify_pe_failure"),
        observers={"schedule": saw_pass},
    )
    session.stats = Proxy(
        session.stats, tracer, "stats",
        ("record_task", "record_scheduling_pass", "record_injection",
         "record_app_completion", "record_app_drop"),
    )
    if session.source is not None:
        session.source = Proxy(session.source, tracer, "source", ("pop",))
    if session.qos is not None:
        session.qos = Proxy(
            session.qos, tracer, "qos",
            ("start_run", "poll", "assign_deadline"),
        )
        # the lazy source stamps deadlines through its own reference
        source = unwrap(session.source)
        if source is not None and getattr(source, "qos", None) is not None:
            source.qos = session.qos
    session.perf_model = Proxy(
        session.perf_model, tracer, "perfmodel",
        ("cpu_time", "service_time", "jitter", "accel_points",
         "accel_transfer_bytes", "accel_compute_time"),
    )
    session.cost_model = Proxy(
        session.cost_model, tracer, "costmodel", ("pass_cost",),
    )


# -- sweep workloads --------------------------------------------------------------


def _grid(seed: int) -> dict[str, Any]:
    return {"grid": SweepGrid(
        configs=GRID_CONFIGS,
        policies=GRID_POLICIES,
        workloads=(validation_sweep(GRID_APPS),),
        seeds=tuple(seed * 100 + i for i in range(GRID_SEEDS)),
        jitter=True,
    ).to_dict()}


#: Row fields that name who computed a cell, how long the host took, or
#: how it was resolved; everything else must agree across executors.
_ROW_HOST_FIELDS = ("worker", "wall_time_s", "cached", "core")


def _rows_digest(rows: list[dict[str, Any]]) -> str:
    kept = [
        {k: v for k, v in row.items() if k not in _ROW_HOST_FIELDS}
        for row in rows
    ]
    canon = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _single_resolution(journal_path: Path, cell_ids: list[str]) -> bool:
    """Exactly one resolving journal event per cell."""
    resolved: dict[str, int] = {}
    for event in journal_mod.read_events(journal_path):
        if event.get("event") in (
            journal_mod.EVENT_CELL_FINISH, journal_mod.EVENT_CELL_CACHED
        ):
            cid = event.get("cell_id")
            resolved[cid] = resolved.get(cid, 0) + 1
    return all(resolved.get(cid) == 1 for cid in cell_ids) and len(
        resolved
    ) == len(set(cell_ids))


@dataclass
class _SweepState:
    cells: list[SweepCell]
    #: content hashes, computed in set-up as every campaign prologue does
    cell_ids: list[str]
    out: Path
    tracer: Tracer | None
    #: transport / server handles of the queue-backed variants
    handles: dict[str, Any] = field(default_factory=dict)


class _SweepWorkload:
    """Shared shape of the four sweep drivers over one seeded grid."""

    kind = "sweep"
    root = ROOT_SWEEP
    name = ""

    def __init__(self) -> None:
        self._dirs = 0

    def inputs(self, seed: int) -> dict[str, Any]:
        return _grid(seed)

    def prepare(self, inputs: dict[str, Any], workdir: Path) -> None:
        """Cold sweeps start from nothing."""

    def _state(self, inputs: dict[str, Any], out: Path,
               tracer: Tracer | None) -> _SweepState:
        cells = SweepGrid.from_dict(inputs["grid"]).expand()
        return _SweepState(cells, [c.cell_id for c in cells], out, tracer)

    def _fresh_dir(self, workdir: Path) -> Path:
        self._dirs += 1
        out = workdir / f"{self.name}-{self._dirs}"
        out.mkdir(parents=True)
        return out

    def teardown(self, state: _SweepState) -> None:
        shutil.rmtree(state.out, ignore_errors=True)

    def _observation(self, state: _SweepState, metrics: dict[str, Any],
                     journal_path: Path, *, summary: Any = None,
                     host: dict[str, Any] | None = None) -> Observation:
        """Fold per-cell metrics (by cell id) into the common checks;
        ``summary`` is the worker's exit report where a worker ran."""
        rows = [
            CellResult(
                cell, "ok" if metrics.get(cid) else "error", metrics.get(cid)
            ).row()
            for cell, cid in zip(state.cells, state.cell_ids)
        ]
        ok_rows = [r for r in rows if r["status"] == "ok"]
        sim = {
            "cells": len(rows),
            "tasks_total": sum(int(r.get("tasks") or 0) for r in ok_rows),
            "rows_sha256": _rows_digest(rows),
            "single_resolution": _single_resolution(
                journal_path, state.cell_ids
            ),
        }
        facts = {"cell_wall_s": [r["wall_time_s"] for r in ok_rows]}
        facts.update(host or {})
        attempted, failed = len(rows), len(rows) - len(ok_rows)
        if summary is not None:
            facts["worker"] = summary.to_dict()
            attempted += 1
            failed += int(summary.stop_reason != "done")
        return Observation(
            sim=sim, work=len(ok_rows), attempted=attempted, failed=failed,
            host=facts,
        )

    def layer_metrics(self, layers: dict[str, dict[str, float]],
                      obs: Observation) -> dict[str, float]:
        root_s = layers[ROOT_SWEEP]["total_s"]
        cell_s = obs.host["cell_wall_s"]
        worker = obs.host.get("worker", {})
        claim_s = layers.get("transport.claim", {}).get("self_s", 0.0)
        submit_s = layers.get("transport.submit", {}).get("self_s", 0.0)
        transport_s = layer_sum(layers, "transport.", "self_s")
        out = {
            "sweep.driver_residual_s": layers[ROOT_SWEEP]["self_s"],
            "transport.claim_s": claim_s,
            "transport.submit_s": submit_s,
            "transport.other_s": transport_s - claim_s - submit_s,
            "transport.calls": layer_sum(layers, "transport.", "calls"),
            "net.retries": obs.host.get("retries", 0),
            "worker.disconnects": worker.get("disconnects", 0),
            "worker.spooled": worker.get("spooled", 0),
        }
        if "passes" in obs.host:  # warm: every cell is a cache hit
            out["sweep.cache_hit_share"] = obs.host["cache_hit_share"]
            out["sweep.pass_ms"] = root_s * 1e3 / obs.host["passes"]
        else:
            out["sweep.overhead_ms_per_cell"] = _ratio(
                (root_s - sum(cell_s)) * 1e3, len(cell_s)
            )
            out["sweep.cell_ms_median"] = (
                statistics.median(cell_s) * 1e3 if cell_s else 0.0
            )
        return out


def _cell_span_recorder(tracer: Tracer):
    """Progress callback placing one ``cell`` span per executed cell.

    The span ends at the callback and lasts the program's own
    ``wall_time_s``, so it is the cell's execution shifted by the cache
    put and journal append that run between the two.
    """

    def progress(_done: int, _total: int, result: CellResult) -> None:
        if result.ok and not result.cached and result.metrics:
            now = perf_counter()
            tracer.add("cell", now - result.metrics["wall_time_s"], now)

    return progress


def _campaign_metrics(campaign: Any) -> dict[str, Any]:
    return {r.cell.cell_id: r.metrics for r in campaign.results if r.ok}


class SweepInline(_SweepWorkload):
    name = "sweep-inline"

    def setup(self, inputs, workdir, tracer=None) -> _SweepState:
        return self._state(inputs, self._fresh_dir(workdir), tracer)

    def run(self, state: _SweepState) -> Any:
        progress = _cell_span_recorder(state.tracer) if state.tracer else None
        return run_campaign(
            state.cells, out_dir=state.out, jobs=1, progress=progress
        )

    def observe(self, state: _SweepState, campaign: Any) -> Observation:
        return self._observation(
            state, _campaign_metrics(campaign), state.out / "journal.jsonl"
        )


class SweepWarm(_SweepWorkload):
    """Repeated passes over a directory that already holds every result."""

    name = "sweep-warm"

    def prepare(self, inputs, workdir) -> None:
        state = self._state(inputs, workdir / "warm", None)
        if not run_campaign(state.cells, out_dir=state.out).ok:
            raise RuntimeError("sweep-warm: could not fill the campaign directory")

    def setup(self, inputs, workdir, tracer=None) -> _SweepState:
        return self._state(inputs, workdir / "warm", tracer)

    def run(self, state: _SweepState) -> Any:
        hits = 0
        campaign = None
        for _ in range(WARM_PASSES):
            span = state.tracer.begin("pass") if state.tracer else None
            campaign = run_campaign(state.cells, out_dir=state.out)
            if span is not None:
                state.tracer.finish(span)
            hits += campaign.cached_hits
        return campaign, hits

    def observe(self, state: _SweepState, outcome: Any) -> Observation:
        campaign, hits = outcome
        resolved = WARM_PASSES * len(state.cells)
        obs = self._observation(
            state, _campaign_metrics(campaign), state.out / "journal.jsonl",
            host={"passes": WARM_PASSES, "cache_hit_share": hits / resolved},
        )
        obs.sim["cache_hit_share"] = hits / resolved
        # every pass resolves every cell; one it had to execute is a miss
        obs.work = obs.attempted = resolved
        obs.failed += resolved - hits
        return obs

    def teardown(self, state: _SweepState) -> None:
        """The warm directory is the workload's input; keep it."""


_TRANSPORT_CALLS = (
    "wait_ready", "initial_resolved", "stop_requested", "claim", "begin",
    "submit", "fail", "release", "interrupted", "poll_resolved",
    "flush_spool", "spooled", "close",
)


def _traced_transport(transport: Any, tracer: Tracer) -> Proxy:
    """Delegating transport that also places a ``cell`` span between the
    end of ``begin`` and the start of ``submit``/``fail``.  ``renew`` and
    ``heartbeat`` belong to the heartbeat thread and are left untimed."""
    began = [0.0]

    def mark_begin(_args: tuple, _result: Any) -> None:
        began[0] = perf_counter()

    proxy = Proxy(transport, tracer, "transport", _TRANSPORT_CALLS,
                  observers={"begin": mark_begin})
    for method in ("submit", "fail"):
        timed = object.__getattribute__(proxy, method)

        def closing(*args, _timed=timed, **kwargs):
            tracer.add("cell", began[0], perf_counter())
            return _timed(*args, **kwargs)

        object.__setattr__(proxy, method, closing)
    return proxy


def _run_worker(state: _SweepState) -> Any:
    return run_worker(
        transport=state.handles["transport"], oneshot=True, poll_s=0.05
    )


class SweepFs(_SweepWorkload):
    name = "sweep-fs"

    def setup(self, inputs, workdir, tracer=None) -> _SweepState:
        state = self._state(inputs, self._fresh_dir(workdir), tracer)
        write_manifest(
            state.out, state.cells, grid_id=self.name, max_attempts=2,
            timeout_s=None, lease_ttl_s=DEFAULT_LEASE_TTL_S,
        )
        transport: Any = FsTransport(state.out, worker_id="w1")
        if tracer is not None:
            transport = _traced_transport(transport, tracer)
        state.handles["transport"] = transport
        return state

    def run(self, state: _SweepState) -> Any:
        summary = _run_worker(state)
        span = state.tracer.begin("coordinator.merge") if state.tracer else None
        merge_once(state.out)
        if span is not None:
            state.tracer.finish(span)
        return summary

    def observe(self, state: _SweepState, summary: Any) -> Observation:
        cache = ResultCache(state.out / "cache")
        metrics = {cid: cache.get(cid) for cid in state.cell_ids}
        return self._observation(
            state, metrics, state.out / "journal.jsonl", summary=summary
        )


class SweepNet(_SweepWorkload):
    name = "sweep-net"

    def setup(self, inputs, workdir, tracer=None) -> _SweepState:
        state = self._state(inputs, self._fresh_dir(workdir), tracer)
        server = SweepServer(state.out / "server", port=0)
        endpoint = server.bind()
        stop = threading.Event()
        thread = threading.Thread(
            target=server.serve, kwargs={"stop": stop, "poll_s": 0.05},
            name="spine-sweep-server",
        )
        thread.start()
        coordinator = NetTransport(
            endpoint, worker_id="coordinator", spool_dir=state.out / "spool-c"
        )
        coordinator.publish(
            [c.to_dict() for c in state.cells], grid_id=self.name,
            max_attempts=2, timeout_s=None, lease_ttl_s=DEFAULT_LEASE_TTL_S,
            resume=False,
        )
        worker: Any = NetTransport(
            endpoint, worker_id="w1", spool_dir=state.out / "spool-w"
        )
        state.handles.update(
            stop=stop, thread=thread, coordinator=coordinator,
            clients=[coordinator, worker],
            transport=_traced_transport(worker, tracer) if tracer else worker,
        )
        return state

    def run(self, state: _SweepState) -> Any:
        summary = _run_worker(state)
        span = state.tracer.begin("coordinator.fetch") if state.tracer else None
        metrics = state.handles["coordinator"].fetch(state.cell_ids)
        if span is not None:
            state.tracer.finish(span)
        return summary, metrics

    def observe(self, state: _SweepState, outcome: Any) -> Observation:
        summary, metrics = outcome
        retries = sum(c.stats.retries for c in state.handles["clients"])
        return self._observation(
            state, metrics, state.out / "server" / "journal.jsonl",
            summary=summary, host={"retries": retries},
        )

    def teardown(self, state: _SweepState) -> None:
        state.handles["coordinator"].close()
        state.handles["stop"].set()
        state.handles["thread"].join(timeout=10.0)
        super().teardown(state)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def make_workloads() -> dict[str, Any]:
    """Fresh workload objects, in the order ``spec.WORKLOADS`` names them."""
    return {
        "burst-eft": EmulationWorkload("burst-eft", _burst_eft),
        "steady-frfs": EmulationWorkload("steady-frfs", _steady_frfs),
        "stream-poisson": EmulationWorkload("stream-poisson", _stream_poisson),
        "stream-flashcrowd": EmulationWorkload(
            "stream-flashcrowd", _stream_flashcrowd
        ),
        "sweep-inline": SweepInline(),
        "sweep-warm": SweepWarm(),
        "sweep-fs": SweepFs(),
        "sweep-net": SweepNet(),
    }
