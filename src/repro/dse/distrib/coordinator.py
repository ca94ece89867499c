"""The fleet loop of a distributed campaign: spawn, poll, fold, shut down.

:func:`repro.dse.runner.run_campaign` owns the *campaign* in every mode
— expansion, cache pass, the journal's start and end markers,
``results.json``.  When ``workers``/``server`` select a fleet it hands
the cells the cache pass left unresolved to :func:`run_fleet`, which
owns the *fleet* while workers own *cells*:

1. spawns N local worker processes (more may attach from other hosts
   with ``sweep-worker --out DIR`` / ``--server HOST:PORT``), or with
   ``workers=0`` works the queue on an embedded worker thread;
2. polls the transport's resolved set and reports each newly resolved
   cell.  For the directory protocol the poll merges per-worker journal
   shards into the canonical ``journal.jsonl`` — exactly once per
   resolution, with the merged prefix's byte offsets persisted so a
   killed coordinator never re-merges or loses events on ``--resume``;
   for the server it is one request;
3. watches processes and heartbeats, streams a live status line
   (cells/sec, ETA, worker health, cache hit rate), and gives up only
   when nobody is left who could finish the work;
4. asks the fleet to stop and reaps what it spawned, however it ends.

The loop uses the coordinator-side calls alone — a directory's
``CampaignStore`` and a server's ``NetTransport`` name the same ones —
so the directory and the server share it.  Killing the coordinator
mid-flight loses nothing: workers keep draining the queue, and a
resumed coordinator folds it all back together.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.dse.distrib import queue as layout
from repro.dse.distrib.queue import DistribError
from repro.dse.distrib.store import CampaignStore
from repro.dse.distrib.worker import run_worker
from repro.dse.grid import SweepCell
from repro.dse.runner import CellResult

#: Seconds between ``status_fn`` snapshots while the fleet works.
STATUS_INTERVAL_S = 5.0

#: How long a fleet asked to stop gets to exit on its own, and how long
#: an unreachable store gets to come back once nobody is left working.
WORKER_GRACE_S = 15.0


def _spawn_worker(
    out_dir: Path,
    worker_id: str,
    *,
    lease_ttl_s: float,
    poll_s: float,
    server: str | None,
) -> subprocess.Popen:
    """Start one local worker process (directory- or server-attached)."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    cmd = [
        sys.executable, "-m", "repro.cli", "sweep-worker",
        "--worker-id", worker_id,
        "--lease-ttl", str(lease_ttl_s),
        "--poll", str(poll_s),
    ]
    if server is not None:
        cmd += ["--server", server,
                "--spool", str(layout.spool_dir(out_dir, worker_id))]
    else:
        cmd += ["--out", str(out_dir)]
    # Workers narrate to stderr; their stdout JSON summary would
    # otherwise interleave with the coordinator's own --json document.
    return subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


def run_fleet(
    transport: Any,
    pending: dict[str, SweepCell],
    report: Callable[[CellResult], None],
    *,
    workers: int,
    out_dir: Path,
    server: str | None,
    lease_ttl_s: float,
    poll_s: float,
    status_fn: Callable[[dict[str, Any]], None] | None = None,
    spawn: Callable[..., Any] = _spawn_worker,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Drive the published campaign until every ``pending`` cell resolves.

    ``pending`` (cell id -> cell) is consumed: each cell goes to
    ``report`` as a :class:`CellResult` once the transport shows it
    completed or finally failed.  ``spawn``, ``clock`` and ``sleep``
    exist so the loop can be tested without processes or time.

    Raises :class:`DistribError` when the campaign is stranded: no
    spawned process alive, no embedded worker alive, no worker the
    transport's status calls live — judged *before* the resolved set is
    read, so whatever the fleet finished before going away is counted.
    An unreachable store is waited out while anyone is working (workers
    spool and reconnect on their own); with nobody left it still gets
    ``WORKER_GRACE_S`` to come back, because workers exit "done" only
    once the store confirmed every cell — a restart in progress is far
    more likely than a lost campaign.
    """
    procs: dict[str, Any] = {}
    embedded: threading.Thread | None = None
    embedded_error: list[BaseException] = []

    def fleet_alive() -> bool:
        nonlocal embedded
        for worker_id, proc in list(procs.items()):
            if proc.poll() is not None:
                del procs[worker_id]
        if embedded is not None and not embedded.is_alive():
            if embedded_error:
                raise DistribError(
                    f"embedded worker died: {embedded_error[0]}"
                ) from embedded_error[0]
            embedded = None
        if procs or embedded is not None:
            return True
        try:
            snapshot = transport.status_snapshot()
        except DistribError:
            return False
        return any(w["health"] == "live" for w in snapshot["workers"])

    try:
        for i in range(workers):
            worker_id = f"w{i + 1}"
            procs[worker_id] = spawn(
                out_dir, worker_id,
                lease_ttl_s=lease_ttl_s, poll_s=poll_s, server=server,
            )
        if workers == 0 and pending:
            # Coordinate-only mode with no one attached yet: work the
            # queue ourselves so the campaign always makes progress.
            # External workers can still join and share the load.
            mine = None
            if server is not None:
                from repro.dse.distrib.net.client import NetTransport

                mine = NetTransport(
                    server, worker_id="w0-embedded",
                    spool_dir=layout.spool_dir(out_dir, "embedded"),
                )

            def _embedded_worker() -> None:
                try:
                    run_worker(
                        out_dir, worker_id="w0-embedded", transport=mine,
                        lease_ttl_s=lease_ttl_s, poll_s=poll_s,
                    )
                except BaseException as exc:  # noqa: BLE001 — surfaced above
                    embedded_error.append(exc)

            embedded = threading.Thread(
                target=_embedded_worker, name="embedded-worker", daemon=True
            )
            embedded.start()

        last_status = clock() - STATUS_INTERVAL_S
        lost_since: float | None = None
        while pending:
            alive = fleet_alive()
            try:
                completed, failed = transport.resolved_snapshot()
                fresh = sorted(pending.keys() & completed)
                metrics = transport.fetch(fresh) if fresh else {}
            except DistribError as exc:
                if not alive:
                    if lost_since is None:
                        lost_since = clock()
                    if clock() - lost_since >= WORKER_GRACE_S:
                        raise DistribError(
                            f"all workers exited and the campaign store is "
                            f"unreachable with {len(pending)} cells "
                            "unresolved — restart the server and re-run "
                            "with --resume"
                        ) from exc
                sleep(poll_s)
                continue
            lost_since = None
            for cell_id in fresh:
                report(CellResult(
                    pending.pop(cell_id), "ok", metrics.get(cell_id)
                ))
            for cell_id in sorted(pending.keys() & failed.keys()):
                record = failed[cell_id]
                report(CellResult(
                    pending.pop(cell_id), "error",
                    error=str(record.get("error", "?")),
                    attempts=int(record.get("attempts", 1)),
                ))
            if not pending:
                break
            if not alive:
                raise DistribError(
                    f"all workers exited with {len(pending)} cells "
                    "unresolved — check worker logs (and the server), "
                    "then re-run with --resume"
                )
            if status_fn is not None and clock() - last_status >= STATUS_INTERVAL_S:
                last_status = clock()
                try:
                    status_fn(transport.status_snapshot())
                except DistribError:
                    pass
            sleep(poll_s)
    finally:
        try:
            transport.request_stop()
        except DistribError:
            pass
        deadline = clock() + WORKER_GRACE_S
        if embedded is not None:
            embedded.join(timeout=max(0.1, deadline - clock()))
        for proc in procs.values():
            try:
                proc.wait(timeout=max(0.1, deadline - clock()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()


def merge_once(out_dir: str | Path) -> dict[str, Any]:
    """One offline merge pass (no campaign run): shards -> canonical journal.

    Lets an operator fold completed workers' shards into the canonical
    journal without re-running the coordinator loop — ``sweep --status``
    after this sees the campaign's true state.  Returns a small report.
    """
    store = CampaignStore(out_dir, resume=True, owner="coordinator")
    merged = store.merge()
    store.close()
    return {"merged_events": merged, "completed": len(store.state.completed)}
