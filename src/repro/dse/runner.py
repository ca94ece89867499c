"""Campaign execution: parallel cell runs with caching, journal, retry.

:func:`execute_cell` is the worker entry point — a module-level function
taking/returning plain dicts so it crosses the ``ProcessPoolExecutor``
pickle boundary.  :func:`run_campaign` orchestrates a whole sweep:

* cache lookup first — cells whose content-hash result already exists on
  disk are *not* re-executed;
* virtual-backend cells fan out across worker processes (``jobs > 1``);
  threaded-backend cells run inline in the parent, since they spawn one
  OS thread per emulated PE and would oversubscribe cores from inside a
  process pool;
* per-cell wall-clock timeout and bounded retry with failure isolation —
  one diverging or crashing cell cannot take the campaign down;
* every state transition is journaled, so a killed campaign resumes by
  re-queuing only incomplete cells.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.common.atomic import atomic_write_lines
from repro.dse import journal as journal_mod
from repro.dse.grid import SweepCell, SweepGrid, build_workload

ProgressFn = Callable[[int, int, "CellResult"], None]


# -- worker ----------------------------------------------------------------------


def execute_cell(cell_data: dict[str, Any]) -> dict[str, Any]:
    """Run one sweep cell to completion and return its metrics payload.

    Iterations replicate the experiment-script convention: a fresh
    :class:`Emulation` per iteration with ``run_index`` varying the
    jitter stream, the workload built once per cell.  All payload values
    are JSON-serializable (this dict is exactly what the cache stores).
    """
    from repro.hardware.platform import platform_by_name
    from repro.runtime.backends import backend_by_name
    from repro.runtime.emulation import Emulation

    cell = SweepCell.from_dict(cell_data)
    platform = platform_by_name(cell.platform)
    workload = build_workload(cell.workload)
    materialize = cell.backend == "threaded"

    t0 = time.monotonic()
    makespans_us: list[float] = []
    overheads_us: list[float] = []
    last = None
    for it in range(cell.iterations):
        emu = Emulation(
            platform=platform,
            config=cell.config,
            policy=cell.policy,
            materialize_memory=materialize,
            jitter=cell.jitter,
            seed=cell.seed,
            faults=cell.faults,
            qos=cell.qos,
        )
        last = emu.run(workload, backend_by_name(cell.backend), run_index=it)
        makespans_us.append(last.stats.makespan)
        overheads_us.append(last.stats.avg_scheduling_overhead())
        if last.stats.interrupted:
            break  # budget drained: further iterations would drain it too
    assert last is not None
    stats = last.stats

    makespans_ms = [us / 1000.0 for us in makespans_us]
    pe_energy = stats.pe_energy()
    metrics: dict[str, Any] = {
        "cell_id": cell.cell_id,
        "label": cell.label,
        "params": cell.to_dict(),
        "iterations": cell.iterations,
        "makespan_us_runs": makespans_us,
        "sched_overhead_us_runs": overheads_us,
        "makespan_ms": float(np.mean(makespans_ms)),
        "makespan_ms_median": float(np.median(makespans_ms)),
        "execution_time_s": float(np.mean([us / 1e6 for us in makespans_us])),
        "avg_sched_overhead_us": float(np.mean(overheads_us)),
        "mean_ready_length": stats.mean_ready_length(),
        "sched_invocations": stats.sched_invocations,
        "tasks": stats.task_count,
        "apps_injected": stats.apps_injected,
        "apps_completed": stats.apps_completed,
        "apps_degraded": stats.apps_degraded,
        "pe_utilization": stats.pe_utilization(),
        "pe_energy_j": pe_energy,
        "total_energy_j": float(sum(pe_energy.values())),
        "mean_response_ms": stats.mean_response_times(),
        "wall_time_s": time.monotonic() - t0,
        # who computed this cell: a sweep-worker id when running under the
        # distributed service, else the executing process — lets slow or
        # flaky workers be diagnosed from the journal/results alone
        "worker": os.environ.get("DSSOC_WORKER_ID") or f"pid{os.getpid()}",
    }
    if stats.faults_enabled:
        metrics["faults"] = {
            "pe_failures": stats.pe_failures,
            "transient_faults": stats.transient_faults,
            "task_retries": stats.task_retries,
            "tasks_requeued": stats.tasks_requeued,
        }
    if stats.qos_enabled or stats.apps_dropped or stats.watchdog_failstops:
        metrics["qos"] = {
            "apps_dropped": stats.apps_dropped,
            "apps_on_time": stats.apps_on_time,
            "apps_late": stats.apps_late,
            "watchdog_failstops": stats.watchdog_failstops,
            "response_percentiles": stats.response_percentiles(),
        }
    if stats.interrupted:
        # A cell whose QoS budget drained mid-run: the metrics are partial
        # (remaining iterations skipped) and flagged so analysis can tell.
        metrics["interrupted"] = True
        metrics["interrupt_reason"] = stats.interrupt_reason
    if cell.backend == "threaded":
        metrics["outputs_correct"] = last.verify_outputs()
    return metrics


# -- results ---------------------------------------------------------------------


@dataclass
class CellResult:
    """Outcome of one cell: metrics on success, diagnosis otherwise."""

    cell: SweepCell
    status: str  # "ok" | "error" | "timeout"
    metrics: dict[str, Any] | None = None
    error: str | None = None
    cached: bool = False
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def row(self) -> dict[str, Any]:
        """Flat dict for tables and Pareto analysis."""
        row: dict[str, Any] = {
            "label": self.cell.label,
            "platform": self.cell.platform,
            "config": self.cell.config,
            "policy": self.cell.policy,
            "workload": self.cell.workload_label,
            "seed": self.cell.seed,
            "iterations": self.cell.iterations,
            "status": self.status,
            "cached": self.cached,
            "cell_id": self.cell.cell_id,
        }
        if self.metrics:
            for key in (
                "makespan_ms",
                "makespan_ms_median",
                "execution_time_s",
                "avg_sched_overhead_us",
                "total_energy_j",
                "tasks",
                "apps_completed",
                "apps_degraded",
                "wall_time_s",
                "worker",
            ):
                row[key] = self.metrics.get(key)
        if self.error:
            row["error"] = self.error
        return row


@dataclass
class CampaignResult:
    """All cell results of one campaign, in grid order."""

    results: list[CellResult]
    out_dir: Path | None = None
    elapsed_s: float = 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.results if r.ok and not r.cached)

    @property
    def cached_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def failures(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def rows(self) -> list[dict[str, Any]]:
        return [r.row() for r in self.results]

    def table(self, *, sort_by: str | None = None) -> str:
        from repro.analysis.tables import campaign_table

        return campaign_table(self.rows(), sort_by=sort_by)

    def summary(self) -> dict[str, Any]:
        return {
            "cells": len(self.results),
            "executed": self.executed,
            "cached": self.cached_hits,
            "failed": len(self.failures()),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def save(self, path: str | Path) -> Path:
        """Write ``{"summary": ..., "cells": rows}`` as plain JSON, the
        summary on the first line and one row per line after it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)

        def lines() -> Iterator[str]:
            yield f'{{"summary": {json.dumps(self.summary())},\n"cells": [\n'
            sep = ""
            for result in self.results:
                yield sep + json.dumps(result.row())
                sep = ",\n"
            yield "\n]}\n"

        atomic_write_lines(path, lines())
        return path


# -- execution strategies --------------------------------------------------------


@dataclass
class _Recorder:
    """Result collection and progress for every mode; the two local
    execution strategies also persist and journal what they run, through
    ``store`` (the directory's ``CampaignStore``; None in memory)."""

    total: int
    store: Any = None
    progress: ProgressFn | None = None
    collected: dict[str, CellResult] = field(default_factory=dict)

    def on_start(self, cell: SweepCell, attempt: int) -> None:
        if self.store:
            self.store.start(cell.cell_id, attempt)

    def on_interrupt(self, cell: SweepCell) -> None:
        """Record a cell cut short by SIGINT/SIGTERM (stays incomplete)."""
        if self.store:
            self.store.interrupted(cell.cell_id)

    def collect(self, result: CellResult) -> None:
        """Count a resolved cell (someone else has persisted it)."""
        self.collected[result.cell.cell_id] = result
        if self.progress:
            self.progress(len(self.collected), self.total, result)

    def on_result(self, result: CellResult) -> None:
        """Persist, journal and count a cell this process executed."""
        cell_id, metrics = result.cell.cell_id, result.metrics
        if self.store and result.ok:
            self.store.finish(
                cell_id, metrics, attempts=result.attempts,
                worker=metrics.get("worker"),
                wall_time_s=metrics.get("wall_time_s"),
            )
        elif self.store:
            self.store.error(cell_id, result.error, result.attempts)
        self.collect(result)


def _run_inline(
    cells: list[SweepCell], max_attempts: int, recorder: _Recorder
) -> None:
    """Sequential execution in this process (jobs=1 / threaded backend)."""
    for cell in cells:
        last_error = ""
        for attempt in range(1, max_attempts + 1):
            recorder.on_start(cell, attempt)
            try:
                metrics = execute_cell(cell.to_dict())
            except KeyboardInterrupt:
                # Ctrl-C / SIGTERM mid-cell: journal it as interrupted so
                # --resume re-runs exactly this cell, then unwind.
                recorder.on_interrupt(cell)
                raise
            except Exception as exc:  # noqa: BLE001 — isolate cell failures
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            recorder.on_result(
                CellResult(cell, "ok", metrics, attempts=attempt)
            )
            break
        else:
            recorder.on_result(
                CellResult(
                    cell, "error", error=last_error, attempts=max_attempts
                )
            )


def _run_parallel(
    cells: list[SweepCell],
    jobs: int,
    timeout_s: float | None,
    max_attempts: int,
    recorder: _Recorder,
) -> None:
    """Fan cells out over a process pool with timeout + bounded retry.

    At most ``jobs`` futures are kept in flight so submission time
    approximates start time, making the per-cell timeout meaningful.  A
    timed-out or pool-breaking cell forces a pool recycle (the stuck
    worker cannot be reclaimed); other in-flight cells are re-queued
    without charging them an attempt.
    """
    queue: deque[tuple[SweepCell, int]] = deque((c, 1) for c in cells)
    pool = ProcessPoolExecutor(max_workers=jobs)
    in_flight: dict[Future, tuple[SweepCell, int, float]] = {}
    try:
        while queue or in_flight:
            while queue and len(in_flight) < jobs:
                cell, attempt = queue.popleft()
                recorder.on_start(cell, attempt)
                fut = pool.submit(execute_cell, cell.to_dict())
                in_flight[fut] = (cell, attempt, time.monotonic())
            done, _pending = wait(
                set(in_flight), timeout=0.1, return_when=FIRST_COMPLETED
            )
            recycle = False
            for fut in done:
                cell, attempt, _t0 = in_flight.pop(fut)
                try:
                    metrics = fut.result()
                except BrokenProcessPool:
                    recycle = True
                    if attempt < max_attempts:
                        queue.append((cell, attempt + 1))
                    else:
                        recorder.on_result(
                            CellResult(
                                cell,
                                "error",
                                error="worker process died",
                                attempts=attempt,
                            )
                        )
                except Exception as exc:  # noqa: BLE001 — isolate cell failures
                    if attempt < max_attempts:
                        queue.append((cell, attempt + 1))
                    else:
                        recorder.on_result(
                            CellResult(
                                cell,
                                "error",
                                error=f"{type(exc).__name__}: {exc}",
                                attempts=attempt,
                            )
                        )
                else:
                    recorder.on_result(
                        CellResult(cell, "ok", metrics, attempts=attempt)
                    )
            if timeout_s is not None:
                now = time.monotonic()
                for fut, (cell, attempt, t0) in list(in_flight.items()):
                    if now - t0 > timeout_s:
                        fut.cancel()
                        del in_flight[fut]
                        recorder.on_result(
                            CellResult(
                                cell,
                                "timeout",
                                error=f"cell exceeded {timeout_s:g}s",
                                attempts=attempt,
                            )
                        )
                        recycle = True
            if recycle:
                for fut, (cell, attempt, _t0) in in_flight.items():
                    fut.cancel()
                    queue.append((cell, attempt))
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=jobs)
    except KeyboardInterrupt:
        # Journal every in-flight cell as interrupted (workers get the
        # signal too and die with the pool); --resume re-runs only these.
        for fut, (cell, _attempt, _t0) in in_flight.items():
            fut.cancel()
            recorder.on_interrupt(cell)
        raise
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


# -- orchestration ---------------------------------------------------------------


def check_fleet_timing(
    lease_ttl_s: float | None, poll_s: float | None = None
) -> None:
    """Reject a lease ttl (None: the manifest's) or a poll interval that
    is not a finite number of seconds above 0, naming its flag."""
    for value, name in ((lease_ttl_s, "lease_ttl_s (--lease-ttl)"),
                        (poll_s, "poll_s (--poll)")):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{name} must be a finite number of seconds above 0, "
                f"got {value}"
            )


def _check_settings(*, jobs, workers, retries, timeout_s, lease_ttl_s,
                    poll_s) -> None:
    """Reject a campaign setting out of range before anything runs."""
    if jobs < 1:
        raise ValueError(f"jobs (--jobs) must be at least 1, got {jobs}")
    if workers is not None and workers < 0:
        raise ValueError(
            f"workers (--workers) must be at least 0, got {workers}"
        )
    if retries < 0:
        raise ValueError(f"retries (--retries) must be at least 0, got {retries}")
    if timeout_s is not None and not (math.isfinite(timeout_s) and timeout_s > 0):
        raise ValueError(
            "timeout_s (--timeout) must be a finite number of seconds "
            f"above 0, got {timeout_s}"
        )
    check_fleet_timing(lease_ttl_s, poll_s)


def run_campaign(
    grid: SweepGrid | Iterable[SweepCell],
    *,
    out_dir: str | Path | None = None,
    jobs: int = 1,
    workers: int | None = None,
    server: str | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    resume: bool = False,
    force: bool = False,
    lease_ttl_s: float | None = None,
    poll_s: float = 0.5,
    progress: ProgressFn | None = None,
    status_fn: Callable[[dict[str, Any]], None] | None = None,
) -> CampaignResult:
    """Run every cell of a sweep, returning results in grid order.

    The mode only changes who executes the cells: this process, inline
    or (``jobs > 1``) on a process pool; with ``workers=N`` a fleet
    coordinated through ``out_dir`` — N spawned workers plus whoever
    attaches with ``sweep-worker --out`` (``workers=0`` spawns none and
    works the queue on an embedded thread); with ``server="HOST:PORT"``
    the same fleet (``workers`` defaults to 1) attached to a
    ``sweep-server``, which then owns journal, cache and failure records
    while ``results.json`` and the workers' spools land in ``out_dir``.

    With ``out_dir`` the campaign is durable: completed cells land in a
    content-addressed cache (``out_dir/cache/``) and every event in an
    append-only journal (``out_dir/journal.jsonl``); a results summary is
    written to ``out_dir/results.json``.  Re-running the campaign skips
    cached cells; ``resume=True`` additionally appends to the existing
    journal (instead of starting a new one) after replaying it to report
    where the previous attempt stopped, and keeps a fleet's queue state.
    ``force=True`` starts over in every mode: it overrides ``resume``,
    drops the cells' cache entries and recomputes them all.
    ``lease_ttl_s``, ``poll_s`` and ``status_fn`` (handed a status
    snapshot every few seconds) only matter to a fleet.

    ``jobs`` must be at least 1, ``workers`` and ``retries`` at least 0,
    ``timeout_s`` None (no timeout) or a finite number of seconds above 0,
    ``lease_ttl_s`` None (the manifest's, else 30 s) or a finite number of
    seconds above 0, and ``poll_s`` a finite number of seconds above 0;
    anything else is a :class:`ValueError` naming the setting, raised
    before anything is written.
    """
    _check_settings(jobs=jobs, workers=workers, retries=retries,
                    timeout_s=timeout_s, lease_ttl_s=lease_ttl_s, poll_s=poll_s)
    fleet = workers is not None or server is not None
    if fleet and jobs > 1:
        raise ValueError(
            "jobs > 1 (--jobs) runs cells on a local process pool; it "
            "cannot be combined with a fleet (--workers / --server)"
        )
    if fleet and out_dir is None:
        raise ValueError(
            "a fleet (--workers / --server) needs a campaign directory "
            "(out_dir / --out)"
        )
    if isinstance(grid, SweepGrid):
        cells, grid_id = grid.expand(), grid.grid_id
    else:
        cells = list(grid)
        grid_id = f"adhoc-{len(cells)}"
    ids = [cell.cell_id for cell in cells]
    by_id: dict[str, SweepCell] = {}
    for cell_id, cell in zip(ids, cells):
        by_id.setdefault(cell_id, cell)
    max_attempts = 1 + int(retries)
    resume = resume and not force
    t_start = time.monotonic()

    # The store is the campaign's durable state as its coordinator sees
    # it: the server (through NetTransport), or the campaign directory's
    # CampaignStore (none for an in-memory run).  Everything below talks
    # to either through the same calls.
    out_path: Path | None = None
    store: Any = None
    start: dict[str, Any] = {"cells": len(cells), "resume": resume}
    if out_dir is not None:
        from repro.dse.distrib import queue as layout
        from repro.dse.distrib.store import CampaignStore

        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        if server is not None:
            from repro.dse.distrib.net.client import NetTransport

            store = NetTransport(
                server, worker_id="coordinator",
                spool_dir=layout.spool_dir(out_path, "coordinator"),
            )
            start["transport"] = "net"
        else:
            store = CampaignStore(out_path, resume=resume, owner="coordinator")
            start.update(
                prior_completed=len(store.state.completed),
                prior_incomplete=len(store.state.incomplete),
            )
    recorder = _Recorder(total=len(by_id), progress=progress)
    if fleet:
        workers = 1 if workers is None else workers
        lease_ttl_s = layout.lease_ttl_s(None, lease_ttl_s)
        store.publish(
            [cell.to_dict() for cell in by_id.values()],
            grid_id=grid_id, max_attempts=max_attempts, timeout_s=timeout_s,
            lease_ttl_s=lease_ttl_s, resume=resume,
        )
        start.update(distributed=True, workers=workers)
    elif store is not None:
        # the local executors persist and journal what they run; there is
        # no manifest, so the store is told the campaign's cells
        store.cells = by_id
        recorder.store = store

    interrupted = False
    try:
        if store is not None:
            store.event(journal_mod.EVENT_CAMPAIGN_START, **start)
            # Cache pass: satisfy what we can without executing.
            for cell_id, hit in store.cache_pass(force=force).items():
                recorder.collect(
                    CellResult(by_id[cell_id], "ok", hit, cached=True)
                )
        to_run = {
            cell_id: cell for cell_id, cell in by_id.items()
            if cell_id not in recorder.collected
        }
        if fleet:
            from repro.dse.distrib.coordinator import run_fleet

            run_fleet(
                store, to_run, recorder.collect,
                workers=workers, out_dir=out_path, server=server,
                lease_ttl_s=lease_ttl_s, poll_s=poll_s, status_fn=status_fn,
            )
        else:
            inline = [c for c in to_run.values() if c.backend == "threaded"]
            pooled = [c for c in to_run.values() if c.backend != "threaded"]
            if jobs > 1 and len(pooled) > 1:
                _run_parallel(pooled, jobs, timeout_s, max_attempts, recorder)
            else:
                _run_inline(pooled, max_attempts, recorder)
            if inline:
                _run_inline(inline, max_attempts, recorder)
    except BaseException:
        interrupted = True
        raise
    finally:
        if store is not None:
            completed = sum(1 for r in recorder.collected.values() if r.ok)
            end: dict[str, Any] = {
                "cells": len(cells),
                "completed": completed,
                "failed": len(recorder.collected) - completed,
            }
            if interrupted:
                end["interrupted"] = True
            try:
                store.event(journal_mod.EVENT_CAMPAIGN_END, **end)
            except layout.DistribError:
                pass  # the server is gone; its journal ends where it ends
            store.close()

    campaign = CampaignResult(
        results=[recorder.collected[cell_id] for cell_id in ids],
        out_dir=out_path,
        elapsed_s=time.monotonic() - t_start,
    )
    if out_path is not None:
        campaign.save(layout.results_path(out_path))
    return campaign
