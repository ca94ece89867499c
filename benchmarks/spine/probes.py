"""Micro-probes: fixed op counts on one layer's public functions.

Each probe times a seeded, fixed amount of work through a layer's public
API, five times after one warm-up, and reports the median per operation.
They are the benchmark's analog of the paper's per-policy scheduler
overhead table, extended to every layer; the README lists which
end-to-end metric each is expected to move.

The engine, ``ReadyList`` and policy probes follow the active core.  When
the compiled core is importable they are also reported per core under a
``.pure`` / ``.compiled`` suffix; the benchmark never builds the extension.
"""

from __future__ import annotations

import random
import statistics
import threading
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro import _native
from repro import core as core_select
from repro.apps.registry import default_applications
from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib.leases import LeaseDir
from repro.dse.distrib.net.client import NetTransport
from repro.dse.distrib.net.framing import FrameAssembler, encode_frame
from repro.dse.distrib.net.server import SweepServer
from repro.dse.distrib.queue import DEFAULT_LEASE_TTL_S, write_manifest
from repro.dse.distrib.transport import FsTransport, new_token
from repro.dse.grid import SweepCell, SweepGrid, validation_sweep
from repro.dse.journal import Journal
from repro.dse.runner import execute_cell
from repro.runtime.backends.base import PerfModelOracle
from repro.runtime.emulation import Emulation
from repro.runtime.schedulers import make_scheduler
from repro.runtime.schedulers.base import Assignment
from repro.runtime.stats import P2Quantile
from repro.runtime.workload import ArrivalSpec, validation_workload
from repro.runtime.workload_manager import ReadyList
from repro.sim.resources import HostCore, Mailbox

from benchmarks.spine import spec

REPS = 5

ENGINE_OPS = 4000
CONSUME_OPS = 2000
MAILBOX_OPS = 4000
READYLIST_TASKS = 1024
READY_LEN = 256
#: passes per timed sample, by policy cost class (heft and cprank rank
#: the queue, rollout simulates forward)
SCHED_PASSES = {"frfs": 200, "met": 200, "eft": 200, "heft": 20,
                "cprank": 20, "rollout": 20}
BUILD_CALLS = 3
INSTANTIATE_APPS = 1000
ARRIVAL_APPS = 5000
P2_ADDS = 20000
GRID_CELLS = 288
JOURNAL_EVENTS = 1000
CACHE_ENTRIES = 200
LEASE_CYCLES = 200
QUEUE_CELLS = 100
FRAMES = 1000


def _median_s(fn: Callable[[], Any]) -> float:
    """Median wall seconds of ``fn()`` over REPS calls after one warm-up."""
    fn()
    samples = []
    for _ in range(REPS):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def _canned_metrics(cell: SweepCell) -> dict[str, Any]:
    """A ~2 KB metrics payload shaped like ``execute_cell``'s."""
    pes = {f"pe{i}": 0.123456789 * (i + 1) for i in range(5)}
    return {
        "cell_id": cell.cell_id, "label": cell.label,
        "params": cell.to_dict(), "iterations": 1,
        "makespan_us_runs": [1234.5678], "sched_overhead_us_runs": [2.5],
        "makespan_ms": 1.2345678, "makespan_ms_median": 1.2345678,
        "execution_time_s": 0.0012345678, "avg_sched_overhead_us": 2.5,
        "mean_ready_length": 3.25, "sched_invocations": 120, "tasks": 120,
        "apps_injected": 2, "apps_completed": 2, "apps_degraded": 0,
        "pe_utilization": dict(pes), "pe_energy_j": dict(pes),
        "total_energy_j": 1.5,
        "mean_response_ms": {"range_detection": 0.9, "wifi_tx": 1.1},
        "wall_time_s": 0.0123, "worker": "probe",
        "core": {"variant": "pure"},
        "padding": "x" * 1200,
    }


def _probe_cells(n: int, seed: int) -> list[SweepCell]:
    """``n`` distinct cells that are never executed (queue-protocol fodder)."""
    return SweepGrid(
        configs=("3C+2F",), policies=("frfs",),
        workloads=(validation_sweep({"wifi_tx": 1}),),
        seeds=tuple(seed * 1000 + i for i in range(n)),
    ).expand()


# -- runtime layers that follow the active core ----------------------------------


def _noop() -> None:
    return None


def _engine_mix() -> int:
    engine = core_select.make_engine()
    for i in range(ENGINE_OPS):
        engine.timeout(float(i % 97))
    for i in range(ENGINE_OPS):
        engine.call_at(float(i % 89), _noop)
    ping_box, pong_box = Mailbox(engine), Mailbox(engine)

    def ping():
        for _ in range(ENGINE_OPS):
            pong_box.put(1)
            yield ping_box.get()

    def pong():
        for _ in range(ENGINE_OPS):
            yield pong_box.get()
            ping_box.put(1)

    engine.process(ping())
    engine.process(pong())
    engine.run()
    return engine.events_fired


def _consume() -> None:
    engine = core_select.make_engine()
    host = HostCore(engine, "probe")

    def worker(owner: object):
        for _ in range(CONSUME_OPS):
            yield from host.consume(owner, 150.0)

    engine.process(worker(object()))
    engine.process(worker(object()))
    engine.run()


def _mailbox() -> None:
    engine = core_select.make_engine()
    box = Mailbox(engine)

    def consumer():
        for _ in range(MAILBOX_OPS):
            yield box.get()

    for i in range(MAILBOX_OPS):
        box.put(i)
    engine.process(consumer())
    engine.run()


def _ready_tasks(n: int) -> tuple[list, Any, list[Assignment]]:
    """``n`` ready CPU-only head tasks of mixed SDR apps, their session,
    and the assignments that keep part of it busy: two CPUs and one FFT
    accelerator are running a task, one CPU is idle, and so is the other
    FFT, which no queued task can use.  A pass then places exactly one
    task (on the idle CPU) and still has to look at the whole queue for
    the idle accelerator: every policy makes a decision and pays its full
    O(ready x PEs) scan."""
    emu = Emulation(config="3C+2F", policy="frfs", materialize_memory=False)
    per_app = n // 2  # two of three head tasks in this mix are CPU-only
    session = emu.build_session(validation_workload(
        {"range_detection": per_app, "wifi_tx": per_app, "wifi_rx": per_app}
    ))
    tasks = []
    for instance in session.instances:
        for task in instance.head_tasks():
            if not task.supports("fft"):
                task.mark_ready(0.0)
                tasks.append(task)
    # interleave the apps so a pass sees a mixed queue
    random.Random(7).shuffle(tasks)
    cpu0, cpu1, _idle_cpu, fft0, _idle_fft = session.handlers
    running = [
        Assignment(task, handler)
        for handler, task in zip((cpu0, cpu1, fft0), tasks[n:])
    ]
    for a in running:
        a.handler.assign(a.task)
        a.handler.estimated_free_time = 1000.0
    return tasks[:n], session, running


def _new_ready_list():
    kernels = core_select.native_kernels()
    return kernels.ReadyList() if kernels is not None else ReadyList()


def _core_probes() -> dict[str, float]:
    """Engine, resources, ReadyList and policy probes on the active core."""
    out: dict[str, float] = {}
    events = _engine_mix()
    out["sim.engine.events_per_s"] = events / _median_s(_engine_mix)
    out["sim.resources.consume_us"] = (
        _median_s(_consume) / (2 * CONSUME_OPS) * 1e6
    )
    out["sim.resources.mailbox_us"] = _median_s(_mailbox) / MAILBOX_OPS * 1e6

    tasks, session, running = _ready_tasks(READYLIST_TASKS)

    def extend_remove() -> None:
        ready = _new_ready_list()
        ready.extend(tasks)
        while len(ready):
            ready.remove_ids({id(t) for t in islice(iter(ready), 8)})

    out["wm.readylist.extend_remove_us"] = (
        _median_s(extend_remove) / READYLIST_TASKS * 1e6
    )

    devices = {
        pe.pe_id: session.platform.make_accelerator(f"{pe.name}_dev")
        for pe in session.plan.pes if pe.is_accelerator
    }
    ready = _new_ready_list()
    ready.extend(tasks[:READY_LEN])
    for policy in spec.POLICIES_PROBED:
        scheduler = make_scheduler(policy)
        scheduler.oracle = PerfModelOracle(session.perf_model, devices)
        if scheduler.wants_events:  # as the workload manager would have
            scheduler.notify_dispatch(running, 0.0)
        if len(scheduler.schedule(ready, session.handlers, 0.0)) != 1:
            raise RuntimeError(f"{policy}: the probe state must yield one "
                               "assignment per pass")

        n_passes = SCHED_PASSES[policy]

        def passes() -> None:
            for _ in range(n_passes):
                scheduler.schedule(ready, session.handlers, 0.0)

        out[f"schedulers.{policy}.us_per_pass"] = (
            _median_s(passes) / n_passes * 1e6
        )
    return out


def _per_core() -> dict[str, float]:
    if not _native.available():
        return _core_probes()
    out: dict[str, float] = {}
    names: list[str] = []
    for variant in (core_select.CORE_PURE, core_select.CORE_COMPILED):
        with core_select.forced(variant):
            values = _core_probes()
        names = list(values)
        for name, value in values.items():
            out[f"{name}.{variant}"] = value
    active = core_select.selected_core()
    for name in names:
        out[name] = out[f"{name}.{active}"]
    return out


# -- set-up path ------------------------------------------------------------------


def _setup_probes(seed: int) -> dict[str, float]:
    out: dict[str, float] = {}

    def build_apps() -> None:
        for _ in range(BUILD_CALLS):
            default_applications()

    out["appmodel.build_apps_ms"] = _median_s(build_apps) / BUILD_CALLS * 1e3

    def init() -> None:
        for _ in range(BUILD_CALLS):
            Emulation(config="3C+2F", policy="frfs", seed=seed)

    out["emulation.init_ms"] = _median_s(init) / BUILD_CALLS * 1e3

    emu = Emulation(config="3C+2F", policy="frfs", seed=seed,
                    materialize_memory=False)
    small = validation_workload({"wifi_tx": 1, "range_detection": 1})

    def build_session() -> None:
        for _ in range(BUILD_CALLS * 10):
            emu.build_session(small)

    out["emulation.build_session_ms"] = (
        _median_s(build_session) / (BUILD_CALLS * 10) * 1e3
    )

    handler = emu.build_session(small).app_handler

    def instantiate() -> None:
        for i in range(INSTANTIATE_APPS):
            handler.instantiate_one(
                "range_detection", float(i), materialize_memory=False
            )

    out["app_handler.instantiate_us_per_app"] = (
        _median_s(instantiate) / INSTANTIATE_APPS * 1e6
    )

    arrivals = {
        "poisson": {"kind": "poisson", "rate_per_ms": 4.0,
                    "apps": {"range_detection": 1.0},
                    "max_apps": ARRIVAL_APPS, "seed": seed},
        "bursty": {"kind": "bursty", "rate_per_ms": 1.0,
                   "apps": {"range_detection": 2.0, "wifi_tx": 1.0},
                   "bursts": [[100.0, 200.0, 10.0]],
                   "max_apps": ARRIVAL_APPS, "seed": seed},
    }
    for kind, doc in arrivals.items():
        stream = ArrivalSpec.from_dict(doc).build()

        def draw() -> None:
            for _ in stream:
                pass

        out[f"workload.arrivals.{kind}_us_per_app"] = (
            _median_s(draw) / ARRIVAL_APPS * 1e6
        )

    rng = random.Random(seed)
    samples = [rng.expovariate(1.0) for _ in range(P2_ADDS)]

    def p2() -> None:
        quantile = P2Quantile(0.95)
        for x in samples:
            quantile.add(x)

    out["stats.p2_add_us"] = _median_s(p2) / P2_ADDS * 1e6
    return out


# -- sweep layers -----------------------------------------------------------------


def _grid_probes(seed: int) -> dict[str, float]:
    grid = SweepGrid(
        configs=("1C+0F", "1C+1F", "1C+2F", "2C+0F", "2C+1F", "2C+2F",
                 "3C+0F", "3C+1F", "3C+2F"),
        policies=("frfs", "met", "eft", "heft"),
        workloads=(validation_sweep({"wifi_tx": 1, "range_detection": 1}),),
        seeds=tuple(seed * 100 + i for i in range(GRID_CELLS // 36)),
        jitter=True,
    )
    cells = grid.expand()

    def ids() -> list[str]:
        return [cell.cell_id for cell in cells]

    floor = SweepCell(
        config="1C+0F", policy="frfs",
        workload=validation_sweep({"wifi_tx": 1}), seed=seed,
    ).to_dict()
    floor_ms = _median_s(lambda: execute_cell(floor)) * 1e3

    def init() -> None:
        Emulation(config="1C+0F", policy="frfs", seed=seed)

    return {
        "dse.grid.expand_us_per_cell": _median_s(grid.expand) / len(cells) * 1e6,
        "dse.grid.cell_id_us": _median_s(ids) / len(cells) * 1e6,
        "dse.execute_cell.floor_ms": floor_ms,
        "dse.execute_cell.init_share": _median_s(init) * 1e3 / floor_ms,
    }


def _journal_cache_probes(seed: int, workdir: Path) -> dict[str, float]:
    out: dict[str, float] = {}
    cells = _probe_cells(max(JOURNAL_EVENTS, CACHE_ENTRIES), seed)
    journal_path = workdir / "probe-journal.jsonl"

    def append() -> None:
        with Journal(journal_path) as journal:
            for cell in cells[:JOURNAL_EVENTS]:
                journal.append(
                    journal_mod.EVENT_CELL_FINISH, cell_id=cell.cell_id,
                    label=cell.label, makespan_ms=1.2345678, attempts=1,
                    worker="probe", wall_time_s=0.0123,
                )

    out["dse.journal.append_us"] = _median_s(append) / JOURNAL_EVENTS * 1e6
    out["dse.journal.replay_us_per_event"] = (
        _median_s(lambda: journal_mod.replay(journal_path))
        / JOURNAL_EVENTS * 1e6
    )
    journal_mod.write_index(journal_path, journal_mod.replay(journal_path))
    out["dse.journal.replay_indexed_ms"] = _median_s(
        lambda: journal_mod.replay_indexed(journal_path, write=False)
    ) * 1e3

    cache = ResultCache(workdir / "probe-cache")
    entries = [(c.cell_id, _canned_metrics(c)) for c in cells[:CACHE_ENTRIES]]

    def put() -> None:
        for cell_id, metrics in entries:
            cache.put(cell_id, metrics)

    def get_hit() -> None:
        for cell_id, _ in entries:
            cache.get(cell_id)

    def get_miss() -> None:
        for cell_id, _ in entries:
            cache.get("absent-" + cell_id)

    out["dse.cache.put_us"] = _median_s(put) / CACHE_ENTRIES * 1e6
    out["dse.cache.get_hit_us"] = _median_s(get_hit) / CACHE_ENTRIES * 1e6
    out["dse.cache.get_miss_us"] = _median_s(get_miss) / CACHE_ENTRIES * 1e6

    leases = LeaseDir(workdir / "probe-leases", owner="probe",
                      ttl_s=DEFAULT_LEASE_TTL_S)

    def lease_cycle() -> None:
        for i in range(LEASE_CYCLES):
            leases.try_acquire(f"cell{i}")
            leases.release(f"cell{i}")

    out["leases.acquire_release_us"] = (
        _median_s(lease_cycle) / LEASE_CYCLES * 1e6
    )
    return out


def _queue_cycle(transport: Any, cells: list[SweepCell], round_no: int) -> None:
    """claim -> begin -> submit -> release for every cell, no emulation."""
    for seq, cell in enumerate(cells):
        cell_id, label = cell.cell_id, cell.label
        reply = transport.claim(cell_id, label, new_token("probe", seq))
        if reply.granted:
            transport.begin(cell_id, label, reply.attempt)
            transport.submit(
                cell_id, label, _canned_metrics(cell), attempt=reply.attempt,
                wall_time_s=0.0123,
                token=new_token("probe", round_no * len(cells) + seq),
            )
        transport.release(cell_id)


def _transport_probes(seed: int, workdir: Path) -> dict[str, float]:
    """The queue protocol end to end, a fresh campaign per repetition so
    every claim is granted."""
    out: dict[str, float] = {}
    cells = _probe_cells(QUEUE_CELLS, seed)
    counter = [0]

    def fs_round() -> float:
        counter[0] += 1
        root = workdir / f"probe-fs-{counter[0]}"
        write_manifest(root, cells, grid_id="probe", max_attempts=2,
                       timeout_s=None, lease_ttl_s=DEFAULT_LEASE_TTL_S)
        transport = FsTransport(root, worker_id="probe")
        transport.wait_ready(timeout_s=5.0, poll_s=0.05)
        t0 = perf_counter()
        _queue_cycle(transport, cells, counter[0])
        elapsed = perf_counter() - t0
        transport.close()
        return elapsed

    fs_round()
    out["transport.fs.cycle_us"] = (
        statistics.median(fs_round() for _ in range(REPS)) / QUEUE_CELLS * 1e6
    )

    server = SweepServer(workdir / "probe-net", port=0)
    endpoint = server.bind()
    stop = threading.Event()
    thread = threading.Thread(
        target=server.serve, kwargs={"stop": stop, "poll_s": 0.05},
        name="spine-probe-server",
    )
    thread.start()
    transport = NetTransport(endpoint, worker_id="probe",
                             spool_dir=workdir / "probe-spool")
    try:
        def net_round() -> float:
            counter[0] += 1
            transport.publish(
                [c.to_dict() for c in cells], grid_id="probe", max_attempts=2,
                timeout_s=None, lease_ttl_s=DEFAULT_LEASE_TTL_S, resume=False,
            )
            transport.cache_pass(force=True)
            t0 = perf_counter()
            _queue_cycle(transport, cells, counter[0])
            return perf_counter() - t0

        net_round()
        out["net.rpc.cycle_us"] = (
            statistics.median(net_round() for _ in range(REPS))
            / QUEUE_CELLS * 1e6
        )

        def pings() -> None:
            for _ in range(QUEUE_CELLS):
                transport.ping()

        out["net.rpc.ping_us"] = _median_s(pings) / QUEUE_CELLS * 1e6
    finally:
        transport.close()
        stop.set()
        thread.join(timeout=10.0)

    message = {"op": "submit", "rid": "probe:1", "worker": "probe",
               "cell_id": cells[0].cell_id, "label": cells[0].label,
               "metrics": _canned_metrics(cells[0]), "attempt": 1,
               "wall_time_s": 0.0123, "token": "probe-token"}
    frame = encode_frame(message)

    def encode() -> None:
        for _ in range(FRAMES):
            encode_frame(message)

    def decode() -> None:
        assembler = FrameAssembler()
        for _ in range(FRAMES):
            assembler.feed(frame)
            assembler.frames()

    out["net.framing.encode_us"] = _median_s(encode) / FRAMES * 1e6
    out["net.framing.decode_us"] = _median_s(decode) / FRAMES * 1e6

    handler = SweepServer(workdir / "probe-handle")
    published = {"op": "publish", "cells": [c.to_dict() for c in cells],
                 "grid_id": "probe", "max_attempts": 2, "resume": False}
    claim_s, submit_s = [], []
    try:
        for round_no in range(REPS + 1):
            handler.handle(published)
            handler.handle({"op": "cache_pass", "force": True})
            t0 = perf_counter()
            for seq, cell in enumerate(cells):
                handler.handle({"op": "claim", "worker": "probe",
                                "cell_id": cell.cell_id,
                                "token": f"c{round_no}-{seq}"})
            t1 = perf_counter()
            for seq, cell in enumerate(cells):
                handler.handle({"op": "submit", "worker": "probe",
                                "cell_id": cell.cell_id, "label": cell.label,
                                "metrics": _canned_metrics(cell), "attempt": 1,
                                "wall_time_s": 0.0123,
                                "token": f"s{round_no}-{seq}"})
            t2 = perf_counter()
            if round_no:  # the first round is the warm-up
                claim_s.append(t1 - t0)
                submit_s.append(t2 - t1)
    finally:
        handler.close()
    out["net.server.handle_claim_us"] = (
        statistics.median(claim_s) / QUEUE_CELLS * 1e6
    )
    out["net.server.handle_submit_us"] = (
        statistics.median(submit_s) / QUEUE_CELLS * 1e6
    )
    return out


def run_probes(seed: int, workdir: Path) -> dict[str, float]:
    """Every probe in ``spec.PROBES`` (plus per-core variants when both
    cores are importable); scratch files go under ``workdir``."""
    out = _per_core()
    out.update(_setup_probes(seed))
    out.update(_grid_probes(seed))
    out.update(_journal_cache_probes(seed, workdir))
    out.update(_transport_probes(seed, workdir))
    return out
