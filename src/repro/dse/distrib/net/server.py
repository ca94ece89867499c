"""The sweep queue server: campaign state behind a TCP request loop.

``dssoc-emulate sweep-server --out DIR`` owns one campaign: the
manifest, cell leases, result submission, failure records, worker
heartbeats, and the canonical journal.  Workers and coordinators speak
length-prefixed JSON frames (:mod:`repro.dse.distrib.net.framing`) to
it; no participant other than the server touches the campaign
directory, so fleets need no shared mount.

Two properties carry the robustness story:

* **Idempotent requests.**  Every mutating request carries a client
  token (its retry-stable request id).  A ``claim`` retried after a
  dropped ACK re-grants the same lease instead of reading as a
  competing claim; a ``submit`` retried after a dropped ACK folds as a
  dedupe because the completed set already contains the cell; a
  ``fail`` retried with the same token does not double-charge the
  attempt budget.  Exactly-once journal folding is therefore preserved
  end to end under arbitrary request replay.
* **Durable state, volatile bookkeeping.**  Everything that must
  survive a server SIGKILL is already durable through PR 5 machinery —
  the manifest file, the journal (+ index), the content-hash cache,
  per-cell failure records.  Leases and worker tables are deliberately
  in-memory: after a restart they are empty, workers re-claim on their
  next pass, and the completed-set replay guarantees no cell is lost or
  double-counted.

The request handler (:meth:`SweepServer.handle`) is a pure
dict-in/dict-out function, so protocol invariants are testable (and
property-testable) without sockets; :meth:`SweepServer.serve` is a thin
single-threaded ``selectors`` loop around it.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.dse.distrib import queue as layout
from repro.dse.distrib.status import throughput, worker_health
from repro.dse.distrib.store import CampaignStore
from repro.dse.distrib.transport import (
    CLAIM_BUSY,
    CLAIM_CACHED,
    CLAIM_FAILED_FINAL,
    CLAIM_GRANTED,
    CLAIM_RESOLVED,
)
from repro.dse.distrib.net.framing import FrameAssembler, FrameError, encode_frame

#: Protocol version spoken by this build; bumped on incompatible change.
PROTOCOL_VERSION = 1


def load_endpoint(out_dir: str | Path) -> dict[str, Any] | None:
    """The running (or last) server's address record, or None."""
    return layout.read_record(layout.endpoint_path(out_dir))


@dataclass
class _Lease:
    """One in-memory cell lease (volatile by design; see module doc)."""

    worker: str
    token: str
    attempt: int
    expires_mono: float


@dataclass
class _WorkerInfo:
    state: str = "starting"
    current_cell: str | None = None
    cells_done: int = 0
    last_beat_mono: float = 0.0
    executed: int = 0
    cached: int = 0
    errors: int = 0


class SweepServer:
    """Single campaign, single process, single thread of state mutation.
    Everything durable belongs to ``self.store``; kept here is the volatile
    bookkeeping: leases, idempotency tokens, worker table, status counters."""

    def __init__(
        self,
        out_dir: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float | None = None,
        monotonic: Callable[[], float] = time.monotonic,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.host = host
        self.port = port
        self.monotonic = monotonic
        self._ttl_override = lease_ttl_s

        self.leases: dict[str, _Lease] = {}
        self.workers: dict[str, _WorkerInfo] = {}
        self.leases_expired = 0
        self.cached_resolutions = 0
        self._fail_tokens: dict[str, str] = {}
        self._resolution_wall_ts: deque[float] = deque(maxlen=100_000)

        # Resume from whatever the campaign directory already holds; a
        # manifest this build cannot read is refused before anything opens.
        manifest = layout.find_manifest(self.out_dir)
        self.store = CampaignStore(self.out_dir, resume=True, owner="server")
        self.journal_path = self.store.journal_path
        if manifest is not None:
            self.store.adopt(manifest)
        self.stop_flag = layout.stop_requested(self.out_dir)

    # -- the store's state, as the handlers read it --------------------------------

    @property
    def manifest(self) -> dict[str, Any] | None:
        return self.store.manifest

    @property
    def completed(self) -> set[str]:
        return self.store.state.completed

    @property
    def lease_ttl_s(self) -> float:
        return layout.lease_ttl_s(self.manifest, self._ttl_override)

    def _note_resolution(self, cached: bool) -> None:
        self._resolution_wall_ts.append(time.time())
        if cached:
            self.cached_resolutions += 1

    def _live_lease(self, cell_id: str) -> _Lease | None:
        lease = self.leases.get(cell_id)
        if lease is None:
            return None
        if lease.expires_mono <= self.monotonic():
            del self.leases[cell_id]
            self.leases_expired += 1
            return None
        return lease

    # -- request handler (pure: dict in, dict out) ---------------------------------

    def handle(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Process one request; never raises (errors become replies)."""
        try:
            op = msg.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None or not isinstance(op, str) or op.startswith("_"):
                reply = {"ok": False, "error": f"unknown op {op!r}"}
            else:
                reply = handler(msg)
                reply.setdefault("ok", True)
        except Exception as exc:  # noqa: BLE001 — a bad request must not
            # take down the whole fleet's server
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if "rid" in msg:
            reply["rid"] = msg["rid"]
        return reply

    # Each _op_* mutates state only through this single-threaded path.

    def _op_ping(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"proto": PROTOCOL_VERSION, "pid": os.getpid()}

    def _op_hello(self, msg: dict[str, Any]) -> dict[str, Any]:
        proto = int(msg.get("proto", 0))
        if proto != PROTOCOL_VERSION:
            return {
                "ok": False,
                "error": f"protocol {proto} unsupported "
                         f"(server speaks {PROTOCOL_VERSION})",
            }
        return {
            "proto": PROTOCOL_VERSION,
            "ready": self.manifest is not None,
            "total": len(self.store.cells),
        }

    def _op_publish(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Coordinator publishes (or re-attaches to) the campaign."""
        resume = bool(msg.get("resume"))
        total = self.store.publish(
            msg["cells"],
            grid_id=str(msg.get("grid_id", "net")),
            max_attempts=int(msg.get("max_attempts", 1)),
            timeout_s=msg.get("timeout_s"),
            lease_ttl_s=float(msg.get("lease_ttl_s", self.lease_ttl_s)),
            resume=resume,
        )
        self.stop_flag = False
        if not resume:
            # Fresh campaign: the store reset the durable state exactly as
            # for a directory's coordinator; forget ours with it.
            self.leases.clear()
            self._fail_tokens.clear()
            self.workers.clear()
            self.cached_resolutions = 0
            self._resolution_wall_ts.clear()
        return {"total": total, "resume": resume}

    def _op_manifest(self, msg: dict[str, Any]) -> dict[str, Any]:
        if self.manifest is None:
            return {"ready": False}
        return {"ready": True, "manifest": self.manifest}

    def _op_cache_pass(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Resolve every cell already in the cache (or drop them, --force)."""
        before = len(self.completed)
        # one write + flush for the pass, before the reply goes out
        hits = self.store.cache_pass(force=bool(msg.get("force")))
        for _ in range(len(self.completed) - before):
            self._note_resolution(cached=True)
        return {"cached": sorted(hits)}

    def _op_resolved(self, msg: dict[str, Any]) -> dict[str, Any]:
        completed, failed = self.store.resolved_snapshot()
        return {"completed": sorted(completed), "failed": failed}

    def _op_claim(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        worker = str(msg["worker"])
        token = str(msg.get("token", ""))
        if self.manifest is None:
            return {"ok": False, "error": "no campaign published yet"}
        if cell_id not in self.store.cells:
            return {"ok": False, "error": f"unknown cell {cell_id!r}"}
        if cell_id in self.completed:
            return {"status": CLAIM_RESOLVED}
        record = layout.failure(self.out_dir, cell_id)
        if record and record.get("final"):
            return {"status": CLAIM_FAILED_FINAL}
        lease = self._live_lease(cell_id)
        if lease is not None:
            if lease.worker == worker:
                # The same worker again: either a retry of the claim whose
                # ACK we lost (same token — idempotent re-grant, nothing
                # re-journaled) or a restarted worker process re-claiming
                # its own stuck lease (new token — fresh attempt record).
                lease.expires_mono = self.monotonic() + self.lease_ttl_s
                if lease.token == token:
                    return {"status": CLAIM_GRANTED, "attempt": lease.attempt}
                lease.token = token
                self.store.start(cell_id, lease.attempt, worker)
                return {"status": CLAIM_GRANTED, "attempt": lease.attempt}
            return {"status": CLAIM_BUSY, "holder": lease.worker}
        if self.store.cached(cell_id, worker):
            # Resolved on disk (a prior campaign, or a spool flush that
            # beat this claim): folded as a cache hit exactly once,
            # attributed to the claiming worker — mirrors the filesystem
            # worker journaling cell_cached under its lease.
            self._note_resolution(cached=True)
            info = self.workers.get(worker)
            if info is not None:
                info.cached += 1
            return {"status": CLAIM_CACHED}
        attempt = int(record.get("attempts", 0) if record else 0) + 1
        self.leases[cell_id] = _Lease(
            worker=worker, token=token, attempt=attempt,
            expires_mono=self.monotonic() + self.lease_ttl_s,
        )
        self.store.start(cell_id, attempt, worker)
        return {"status": CLAIM_GRANTED, "attempt": attempt}

    def _op_renew(self, msg: dict[str, Any]) -> dict[str, Any]:
        lease = self._live_lease(msg["cell_id"])
        if lease is None or lease.worker != msg.get("worker"):
            return {"renewed": False}
        lease.expires_mono = self.monotonic() + self.lease_ttl_s
        return {"renewed": True}

    def _op_release(self, msg: dict[str, Any]) -> dict[str, Any]:
        lease = self.leases.get(msg["cell_id"])
        if lease is not None and lease.worker == msg.get("worker"):
            del self.leases[msg["cell_id"]]
            return {"released": True}
        return {"released": False}

    def _op_submit(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        worker = str(msg.get("worker", "?"))
        metrics = msg["metrics"]
        if not isinstance(metrics, dict):
            return {"ok": False, "error": "metrics must be an object"}
        if not self.store.finish(
            cell_id, metrics, attempts=int(msg.get("attempt", 1)),
            worker=worker, wall_time_s=msg.get("wall_time_s"),
            token=msg.get("token"),
        ):
            # Exactly-once folding: a retried submit after a dropped ACK,
            # or a second worker finishing a re-issued cell, both land
            # here — acknowledged, deduped, never double-journaled.
            return {"accepted": True, "dedupe": True}
        layout.clear_failure(self.out_dir, cell_id)
        self._fail_tokens.pop(cell_id, None)
        self._note_resolution(cached=False)
        lease = self.leases.get(cell_id)
        if lease is not None and lease.worker == worker:
            del self.leases[cell_id]
        info = self.workers.get(worker)
        if info is not None:
            info.executed += 1
        return {"accepted": True, "dedupe": False}

    def _op_fail(self, msg: dict[str, Any]) -> dict[str, Any]:
        cell_id = msg["cell_id"]
        token = str(msg.get("token", ""))
        if cell_id in self.completed:
            return {"attempts": 0, "final": False, "dedupe": True}
        if token and self._fail_tokens.get(cell_id) == token:
            # Retry of a failure report whose ACK we lost: do not charge
            # the attempt budget twice.
            record = layout.failure(self.out_dir, cell_id) or {"attempts": 1}
            return {
                "attempts": int(record.get("attempts", 1)),
                "final": bool(record.get("final")),
                "dedupe": True,
            }
        error, worker = str(msg.get("error", "?")), str(msg.get("worker", "?"))
        record = layout.record_failure(
            self.out_dir, cell_id, error,
            max_attempts=layout.max_attempts(self.manifest),
            worker=self.store.owner,
        )
        if token:
            self._fail_tokens[cell_id] = token
        self.store.error(cell_id, error, record["attempts"], worker)
        info = self.workers.get(worker)
        if info is not None:
            info.errors += 1
        return {
            "attempts": int(record["attempts"]),
            "final": bool(record.get("final")),
            "dedupe": False,
        }

    def _op_interrupted(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.store.interrupted(msg["cell_id"], str(msg.get("worker", "?")))
        return {}

    def _op_heartbeat(self, msg: dict[str, Any]) -> dict[str, Any]:
        worker = str(msg["worker"])
        info = self.workers.setdefault(worker, _WorkerInfo())
        info.state = str(msg.get("state", "?"))
        info.current_cell = msg.get("current_cell")
        info.cells_done = int(msg.get("cells_done", 0))
        info.last_beat_mono = self.monotonic()
        try:
            # Durable mirror: lets `sweep --status --out DIR` on the
            # server host (and post-mortem forensics) see the fleet.
            layout.write_worker_status(
                self.out_dir, worker,
                state=info.state,
                current_cell=info.current_cell,
                cells_done=info.cells_done,
                via="net",
            )
        except OSError:
            pass
        failed = len(layout.failed_final(self.out_dir))
        return {
            "stop": self.stop_flag,
            "resolved": len(self.completed) + failed,
            "total": len(self.store.cells),
        }

    def _op_stop(self, msg: dict[str, Any]) -> dict[str, Any]:
        self.stop_flag = True
        self.store.request_stop(str(msg.get("reason", "coordinator")))
        return {}

    def _op_event(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Append one campaign-scope journal event (coordinator use)."""
        kind = str(msg["kind"])
        fields = msg.get("fields") or {}
        if not isinstance(fields, dict):
            return {"ok": False, "error": "fields must be an object"}
        self.store.event(kind, **fields)
        return {}

    def _op_fetch(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"metrics": self.store.fetch(msg.get("cell_ids") or [])}

    def _op_status(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"snapshot": self.snapshot()}

    # -- status --------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A status snapshot shaped like ``status.campaign_snapshot``'s."""
        now_mono = self.monotonic()
        ttl = self.lease_ttl_s
        cells = self.store.cells
        failed = layout.failed_final(self.out_dir)
        completed = self.completed & set(cells) if cells else set(self.completed)
        resolved = len(completed) + len(set(failed) & set(cells))
        total = len(cells)

        workers: list[dict[str, Any]] = []
        for worker_id, info in sorted(self.workers.items()):
            age = max(0.0, now_mono - info.last_beat_mono)
            workers.append({
                "worker": worker_id,
                "health": worker_health(info.state, age, ttl),
                "state": info.state,
                "heartbeat_age_s": round(age, 1),
                "clock_skew": False,  # server-side receive stamps: no skew
                "current_cell": info.current_cell,
                "executed": info.executed,
                "cached": info.cached,
                "errors": info.errors,
            })

        leases = []
        for cell_id, lease in sorted(self.leases.items()):
            remaining = lease.expires_mono - now_mono
            leases.append({
                "cell_id": cell_id,
                "owner": lease.worker,
                "age_s": round(max(0.0, ttl - max(0.0, remaining)), 1),
                "stale": remaining <= 0,
            })

        hit_rate = self.cached_resolutions / resolved if resolved else 0.0

        return {
            "out_dir": str(self.out_dir),
            "transport": "net",
            "grid_id": (self.manifest or {}).get("grid_id"),
            "created_ts": (self.manifest or {}).get("created_ts"),
            "lease_ttl_s": ttl,
            "cells": total,
            "resolved": resolved,
            "completed": len(completed),
            "failed": len(set(failed) & set(cells)),
            "in_flight": len(leases),
            "stop_requested": self.stop_flag,
            "clock_skew": False,
            **throughput(
                self._resolution_wall_ts, time.time(), total - resolved
            ),
            "cache_hit_rate": round(hit_rate, 4),
            "leases_expired": self.leases_expired,
            "workers": workers,
            "leases": leases,
        }

    # -- socket plumbing -----------------------------------------------------------

    def bind(self) -> tuple[str, int]:
        """Bind the listening socket and publish the endpoint record."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.host, self.port = self._listener.getsockname()[:2]
        layout.write_record(layout.endpoint_path(self.out_dir), {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "proto": PROTOCOL_VERSION,
            "started_ts": round(time.time(), 3),
        })
        return self.host, self.port

    def serve(
        self,
        *,
        stop: threading.Event | None = None,
        poll_s: float = 0.2,
    ) -> None:
        """Run the event loop until ``stop`` is set (or forever)."""
        if not hasattr(self, "_listener"):
            self.bind()
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, data=None)
        conns: dict[socket.socket, dict[str, Any]] = {}

        def close_conn(sock: socket.socket) -> None:
            try:
                sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            conns.pop(sock, None)
            try:
                sock.close()
            except OSError:
                pass

        try:
            while stop is None or not stop.is_set():
                for key, events in sel.select(timeout=poll_s):
                    if key.data is None:
                        try:
                            sock, _addr = self._listener.accept()
                        except OSError:
                            continue
                        sock.setblocking(False)
                        conns[sock] = {
                            "assembler": FrameAssembler(), "out": bytearray()
                        }
                        sel.register(
                            sock, selectors.EVENT_READ, data=conns[sock]
                        )
                        continue
                    sock = key.fileobj
                    state = key.data
                    if events & selectors.EVENT_READ:
                        try:
                            data = sock.recv(1 << 16)
                        except (BlockingIOError, InterruptedError):
                            data = None
                        except OSError:
                            close_conn(sock)
                            continue
                        if data == b"":
                            close_conn(sock)
                            continue
                        if data:
                            state["assembler"].feed(data)
                            try:
                                requests = state["assembler"].frames()
                            except FrameError:
                                close_conn(sock)  # desynchronized stream
                                continue
                            for msg in requests:
                                if not isinstance(msg, dict):
                                    continue
                                state["out"] += encode_frame(self.handle(msg))
                    if state["out"]:
                        try:
                            sent = sock.send(bytes(state["out"]))
                            del state["out"][:sent]
                        except (BlockingIOError, InterruptedError):
                            pass
                        except OSError:
                            close_conn(sock)
                            continue
                    want = selectors.EVENT_READ
                    if state["out"]:
                        want |= selectors.EVENT_WRITE
                    try:
                        sel.modify(sock, want, data=state)
                    except (KeyError, ValueError):
                        pass
        finally:
            for sock in list(conns):
                close_conn(sock)
            sel.close()
            try:
                self._listener.close()
            except OSError:
                pass
            try:
                layout.endpoint_path(self.out_dir).unlink()
            except OSError:
                pass
            self.close()

    def close(self) -> None:
        self.store.close()


def run_server(
    out_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl_s: float | None = None,
    stop: threading.Event | None = None,
    ready: Callable[[str, int], None] | None = None,
) -> None:
    """Construct, bind, announce, and serve (the CLI entry point)."""
    server = SweepServer(
        out_dir, host=host, port=port, lease_ttl_s=lease_ttl_s
    )
    bound_host, bound_port = server.bind()
    if ready is not None:
        ready(bound_host, bound_port)
    server.serve(stop=stop)
