"""Distributed sweep worker: claim cells, run them, report exactly once.

A worker is one independent process attached to a campaign through a
:class:`~repro.dse.distrib.transport.WorkerTransport`:

* **filesystem mode** (:class:`~repro.dse.distrib.transport.FsTransport`)
  — the manifest is the work list, lease files arbitrate ownership, the
  shared cache is the result bus; workers are spawned by
  ``sweep --workers N`` or attach from any machine mounting the campaign
  directory (``dssoc-emulate sweep-worker --out DIR``).
* **network mode** (:class:`~repro.dse.distrib.net.client.NetTransport`)
  — the same loop speaks to ``dssoc-emulate sweep-server`` over TCP
  (``sweep-worker --server HOST:PORT``); no shared mount required.

Health and shutdown reuse the PR 4 QoS watchdog machinery: the worker
carries a :class:`~repro.runtime.qos.QoSController` whose interrupt flag
is set by signal handlers or a ``--wall-budget`` expiry, polled between
cells exactly the way backends poll it between scheduler passes; and the
claim heartbeat mirrors the QoS heartbeat-timeout protocol — a renewal
thread renews the held claim, and renewals *stop* once the cell exceeds
the campaign's per-cell timeout, so a hung cell's claim expires and the
cell is re-issued to a healthy worker.

Network-mode degradation is deliberate, not incidental: when the server
becomes unreachable the worker finishes its in-flight cell, persists the
result to a local spool, and keeps trying to reconnect (flushing the
spool first thing on success).  Only when the reconnect budget is
exhausted does it exit — cleanly, with the spool intact for the next
attach — reporting ``server_lost`` (exit code 130 from the CLI, like a
signal-interrupted drain).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

from repro.dse import runner as runner_mod
from repro.dse.distrib.transport import (
    CLAIM_BUSY,
    CLAIM_CACHED,
    CLAIM_FAILED_FINAL,
    CLAIM_GRANTED,
    CLAIM_RESOLVED,
    FsTransport,
    TransportError,
    WorkerTransport,
    new_token,
)
from repro.dse.distrib import queue as layout
from repro.runtime.qos import QoSController

#: How long a network worker keeps retrying to reach a lost server
#: before giving up (each idle retry also sleeps ``poll_s``).
DEFAULT_RECONNECT_BUDGET_S = 60.0


@dataclass
class WorkerSummary:
    """What one worker run accomplished (its exit report)."""

    worker_id: str
    executed: int = 0
    cached: int = 0
    failed: int = 0
    passes: int = 0
    disconnects: int = 0
    spooled: int = 0
    stop_reason: str = "done"

    def to_dict(self) -> dict:
        return {
            "worker": self.worker_id,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "passes": self.passes,
            "disconnects": self.disconnects,
            "spooled": self.spooled,
            "stop_reason": self.stop_reason,
        }


@dataclass
class _HeartbeatState:
    """Shared between the worker loop and its heartbeat thread."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    current_cell: str | None = None
    cell_started: float = 0.0
    timeout_s: float | None = None
    done: int = 0
    state: str = "starting"


class _Heartbeat(threading.Thread):
    """Renews the held claim + publishes worker status while cells run.

    Renewal is deliberately bounded: once the running cell has exceeded
    the campaign's per-cell timeout the claim is allowed to expire, which
    is how a worker hung inside a cell hands that cell back to the fleet
    (the QoS heartbeat-watchdog pattern, applied to workers).
    """

    def __init__(
        self,
        transport: WorkerTransport,
        shared: _HeartbeatState,
        interval_s: float,
    ) -> None:
        super().__init__(name=f"heartbeat-{transport.worker_id}", daemon=True)
        self.transport = transport
        self.shared = shared
        self.interval_s = interval_s
        # not ``_stop``: Thread.join() calls a method of that name
        self._halt = threading.Event()

    def stop(self) -> None:
        """Stop beating and wait out a beat already in flight, so the
        caller's next :meth:`beat` is the last word on the status file."""
        self._halt.set()
        if self.is_alive():
            self.join(timeout=self.interval_s)

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            self.beat()

    def beat(self) -> None:
        with self.shared.lock:
            cell = self.shared.current_cell
            started = self.shared.cell_started
            timeout = self.shared.timeout_s
            done = self.shared.done
            state = self.shared.state
        try:
            if cell is not None:
                runtime = time.monotonic() - started
                if timeout is None or runtime <= timeout:
                    self.transport.renew(cell)
            self.transport.heartbeat(
                state=state, current_cell=cell, cells_done=done
            )
        except TransportError:
            pass  # the main loop handles reconnection; a missed beat is fine


def _rotation(n: int, worker_id: str) -> list[int]:
    """Manifest indices rotated by a stable per-worker offset.

    Workers walk the same cell list starting at different points, so a
    fleet ramping up does not stampede the same claims in order.
    """
    if n == 0:
        return []
    digest = hashlib.sha256(worker_id.encode("utf-8")).hexdigest()
    start = int(digest[:8], 16) % n
    return list(range(start, n)) + list(range(start))


def run_worker(
    out_dir=None,
    *,
    worker_id: str | None = None,
    transport: WorkerTransport | None = None,
    lease_ttl_s: float | None = None,
    poll_s: float = 0.5,
    oneshot: bool = False,
    max_cells: int | None = None,
    controller: QoSController | None = None,
    manifest_wait_s: float = 30.0,
    reconnect_budget_s: float = DEFAULT_RECONNECT_BUDGET_S,
    log=None,
) -> WorkerSummary:
    """Work a campaign until it is fully resolved (or told to stop).

    The campaign is reached through ``transport``; passing ``out_dir``
    alone builds the filesystem transport (the PR 5 directory protocol,
    unchanged on disk).  The loop makes claim-check-execute passes over
    the manifest.  A cell is skipped when it is already resolved, or
    claimed by a live peer; otherwise the worker claims it and runs it
    through the ordinary :func:`repro.dse.runner.execute_cell`.  With
    ``oneshot`` the worker exits after the first pass that finds nothing
    to do (CI helpers); otherwise it waits on peers' claims — surviving
    workers automatically absorb a crashed peer's re-issued cells.
    """
    worker_id = worker_id or layout.default_worker_id()
    if transport is None:
        if out_dir is None:
            raise ValueError("run_worker needs out_dir or transport")
        transport = FsTransport(
            out_dir, worker_id=worker_id, lease_ttl_s=lease_ttl_s
        )
    worker_id = transport.worker_id

    manifest = transport.wait_ready(timeout_s=manifest_wait_s, poll_s=poll_s)
    ttl = layout.lease_ttl_s(manifest, lease_ttl_s)
    timeout_s = manifest.get("timeout_s")
    by_id = layout.manifest_cells(manifest)
    order = list(by_id)

    # Cells the coordinator already resolved (prior runs, cache pass) —
    # read once at attach; new resolutions arrive via claim outcomes.
    resolved = transport.initial_resolved() & set(by_id)

    summary = WorkerSummary(worker_id=worker_id)
    shared = _HeartbeatState()
    heartbeat = _Heartbeat(transport, shared, interval_s=max(0.05, ttl / 3.0))
    if controller is not None:
        controller.start_run()
    token_seq = 0

    def next_token() -> str:
        nonlocal token_seq
        token_seq += 1
        return new_token(worker_id, token_seq)

    def say(msg: str) -> None:
        if log is not None:
            log(f"[{worker_id}] {msg}")

    def begin_cell(cell_id: str) -> None:
        with shared.lock:
            shared.current_cell = cell_id
            shared.cell_started = time.monotonic()
            shared.timeout_s = float(timeout_s) if timeout_s else None
            shared.state = "running"

    def end_cell() -> None:
        with shared.lock:
            shared.current_cell = None
            shared.done = summary.executed + summary.cached
            shared.state = "idle"

    heartbeat.beat()
    heartbeat.start()
    disconnected_since: float | None = None
    try:
        while True:
            summary.passes += 1
            progress_made = False
            stop_reason: str | None = None
            try:
                if transport.spooled():
                    flushed = transport.flush_spool()
                    if flushed:
                        say(f"flushed {flushed} spooled result(s)")
                        progress_made = True
                disconnected_since = None
                for idx in _rotation(len(order), worker_id):
                    if transport.stop_requested():
                        stop_reason = "stop_requested"
                        break
                    if controller is not None:
                        reason = controller.poll()
                        if reason is not None:
                            stop_reason = reason
                            break
                    if max_cells is not None and (
                        summary.executed + summary.cached
                    ) >= max_cells:
                        stop_reason = "max_cells"
                        break
                    cell_id = order[idx]
                    if cell_id in resolved:
                        continue
                    label = by_id[cell_id].label
                    reply = transport.claim(cell_id, label, next_token())
                    try:
                        if reply.status == CLAIM_FAILED_FINAL:
                            resolved.add(cell_id)
                            continue
                        if reply.status == CLAIM_RESOLVED:
                            resolved.add(cell_id)
                            continue
                        if reply.status == CLAIM_CACHED:
                            resolved.add(cell_id)
                            summary.cached += 1
                            progress_made = True
                            continue
                        if reply.status == CLAIM_BUSY:
                            continue
                        assert reply.status == CLAIM_GRANTED
                        attempt = reply.attempt
                        transport.begin(cell_id, label, attempt)
                        begin_cell(cell_id)
                        say(f"run {label} (attempt {attempt})")
                        t0 = time.monotonic()
                        try:
                            metrics = runner_mod.execute_cell(
                                by_id[cell_id].to_dict()
                            )
                        except KeyboardInterrupt:
                            transport.interrupted(cell_id, label)
                            raise
                        except Exception as exc:  # noqa: BLE001 — isolate cells
                            error = f"{type(exc).__name__}: {exc}"
                            record = transport.fail(
                                cell_id, label, error, next_token()
                            )
                            if record.get("final"):
                                resolved.add(cell_id)
                                summary.failed += 1
                            progress_made = True
                        else:
                            metrics["worker"] = worker_id
                            wall = time.monotonic() - t0
                            try:
                                transport.submit(
                                    cell_id, label, metrics,
                                    attempt=attempt, wall_time_s=wall,
                                    token=next_token(),
                                )
                            except TransportError:
                                # Server unreachable after the whole retry
                                # budget: the work is done — persist it
                                # locally and re-submit on reconnect.
                                summary.spooled += 1
                                say(f"server lost; spooled {label}")
                            resolved.add(cell_id)
                            summary.executed += 1
                            progress_made = True
                        finally:
                            end_cell()
                    finally:
                        try:
                            transport.release(cell_id)
                        except TransportError:
                            pass  # claim will expire server-side
            except TransportError as exc:
                summary.disconnects += 1
                now = time.monotonic()
                if disconnected_since is None:
                    disconnected_since = now
                    say(f"transport failure ({exc}); retrying")
                if now - disconnected_since > reconnect_budget_s:
                    stop_reason = "server_lost"
            if stop_reason is not None:
                summary.stop_reason = stop_reason
                break
            if len(resolved) >= len(order) and not transport.spooled():
                # "done" must mean the *server* has every result, not just
                # our local view: a submit that lost its ACK sits in the
                # spool, and exiting now would strand it.  Loop instead —
                # the next pass flushes the spool (or the reconnect budget
                # expires and we exit server_lost).
                summary.stop_reason = "done"
                break
            if oneshot and not progress_made:
                summary.stop_reason = "oneshot_drained"
                break
            if not progress_made:
                # Unresolved work is claimed by live peers (or another
                # campaign); learn any out-of-band resolutions, then wait.
                try:
                    fresh = transport.poll_resolved()
                except TransportError:
                    fresh = None
                if fresh is not None:
                    resolved |= fresh & set(by_id)
                    if len(resolved) >= len(order) and not transport.spooled():
                        summary.stop_reason = "done"
                        break
                time.sleep(poll_s)
    except KeyboardInterrupt:
        summary.stop_reason = "interrupted"
        raise
    finally:
        heartbeat.stop()
        with shared.lock:
            shared.state = summary.stop_reason
        heartbeat.beat()
        summary.spooled = transport.spooled()
        transport.close()
        say(
            f"exit: {summary.stop_reason} ({summary.executed} executed, "
            f"{summary.cached} cached, {summary.failed} failed"
            + (f", {summary.spooled} spooled" if summary.spooled else "")
            + ")"
        )
    return summary
