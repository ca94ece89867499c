"""The network transport client: framed RPC with retry, deadlines, tokens.

:class:`NetTransport` implements the
:class:`~repro.dse.distrib.transport.WorkerTransport` interface over one
TCP connection to ``dssoc-emulate sweep-server``, plus the handful of
coordinator-side operations (publish, cache pass, fetch, status, stop).

Fault-handling contract (what the chaos harness exercises):

* Every call runs under a bounded :class:`~repro.common.retry.RetryPolicy`
  — exponential backoff with full jitter between attempts, a per-call
  socket timeout on each attempt, and an overall per-call deadline.  Any
  :class:`OSError` (which includes resets, timeouts, and every framing
  failure) drops the connection and retries on a fresh one; only after
  the whole budget is spent does the call raise
  :class:`~repro.dse.distrib.transport.TransportError`.
* Every request carries a retry-stable request id (``rid``) which the
  server echoes.  Replies whose rid does not match the in-flight request
  are discarded — this is what makes a *delayed or duplicated* reply
  (a previous attempt's ACK arriving late) harmless rather than a
  desynchronizing poison pill.
* The rid doubles as the idempotency token the server dedupes on, so a
  retried ``claim``/``submit``/``fail`` whose first attempt actually
  landed cannot double-claim, double-count, or double-charge.
* ``submit`` is write-ahead spooled: the result is persisted to the
  local :class:`~repro.dse.distrib.net.spool.ResultSpool` *before* the
  network attempt and removed only on ACK, so neither a lost server nor
  a worker crash mid-submit loses a computed result.
"""

from __future__ import annotations

import hashlib
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from repro.common.retry import RetryPolicy, RetryStats
from repro.dse.distrib.net.framing import recv_frame, send_frame
from repro.dse.distrib.net.spool import ResultSpool
from repro.dse.distrib.transport import ClaimReply, TransportError, WorkerTransport

import socket as socket_mod

#: Default per-call retry envelope: 5 attempts, jittered backoff capped
#: at 2 s, the whole call bounded by 20 s of wall clock.
NET_RETRY = RetryPolicy(attempts=5, base_delay_s=0.05, max_delay_s=2.0, deadline_s=20.0)

#: Per-attempt socket timeout (connect and each recv).
DEFAULT_CALL_TIMEOUT_S = 10.0


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``HOST:PORT`` (or ``:PORT`` for localhost) → ``(host, port)``."""
    text = endpoint.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(
            f"bad server endpoint {endpoint!r} (expected HOST:PORT)"
        )
    return host or "127.0.0.1", int(port_text)


def default_spool_dir(host: str, port: int, worker_id: str) -> Path:
    """A stable per-(endpoint, host-machine) spool location.

    Deliberately *not* keyed by pid: a worker that exited with
    ``server_lost`` leaves its spool here, and the next worker attached
    to the same server from this machine flushes it.
    """
    digest = hashlib.sha256(f"{host}:{port}".encode("utf-8")).hexdigest()[:12]
    return Path(tempfile.gettempdir()) / f"dssoc-spool-{digest}"


class NetTransport(WorkerTransport):
    """One participant's connection to the sweep server."""

    def __init__(
        self,
        endpoint: str | tuple[str, int],
        *,
        worker_id: str,
        spool_dir: str | Path | None = None,
        policy: RetryPolicy = NET_RETRY,
        call_timeout_s: float = DEFAULT_CALL_TIMEOUT_S,
    ) -> None:
        if isinstance(endpoint, str):
            endpoint = parse_endpoint(endpoint)
        self.host, self.port = endpoint
        self.worker_id = worker_id
        self.policy = policy
        self.call_timeout_s = call_timeout_s
        self._sock: socket_mod.socket | None = None
        self._lock = threading.RLock()
        self._rid_seq = 0
        self._stop_cached = False
        self.stats = RetryStats()
        self.spool = ResultSpool(
            spool_dir
            if spool_dir is not None
            else default_spool_dir(self.host, self.port, worker_id)
        )
        self._manifest: dict[str, Any] | None = None

    # -- connection / call machinery -----------------------------------------------

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _ensure_connected(self) -> socket_mod.socket:
        if self._sock is None:
            sock = socket_mod.create_connection(
                (self.host, self.port), timeout=self.call_timeout_s
            )
            sock.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _call(
        self,
        op: str,
        *,
        policy: RetryPolicy | None = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """One logical request: retried, deadline-bounded, rid-matched.

        The rid is assigned once per *logical* call and reused verbatim
        across retries — it is the idempotency token the server keys
        dedupe on.
        """
        policy = policy or self.policy
        with self._lock:
            self._rid_seq += 1
            rid = f"{self.worker_id}:{self._rid_seq}"
            msg = {"op": op, "rid": rid, "worker": self.worker_id, **fields}

            def attempt() -> dict[str, Any]:
                sock = self._ensure_connected()
                try:
                    send_frame(sock, msg)
                    while True:
                        reply = recv_frame(sock)
                        if isinstance(reply, dict) and reply.get("rid") == rid:
                            return reply
                        # A stale reply: a previous attempt's ACK arriving
                        # after we gave up on it, or a chaos-duplicated
                        # frame.  Matching on rid keeps the stream from
                        # desynchronizing — skip it and keep reading.
                except OSError:
                    self._drop_connection()
                    raise

            try:
                reply = policy.call(
                    attempt,
                    retry_on=lambda exc: isinstance(exc, OSError),
                    on_retry=lambda n, exc: self.stats.note(op, exc),
                )
            except OSError as exc:
                raise TransportError(
                    f"sweep server {self.host}:{self.port} unreachable "
                    f"after {policy.attempts} attempt(s): {exc}"
                ) from exc
        if not reply.get("ok"):
            # A *processed* request the server rejected — deterministic,
            # never retried (retrying a semantic error is just louder).
            raise TransportError(
                f"server rejected {op}: {reply.get('error', '?')}"
            )
        return reply

    # -- coordinator-side operations -----------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self._call("ping")

    def publish(
        self,
        cells: list[dict[str, Any]],
        *,
        grid_id: str,
        max_attempts: int,
        timeout_s: float | None,
        lease_ttl_s: float,
        resume: bool,
    ) -> int:
        reply = self._call(
            "publish",
            cells=cells,
            grid_id=grid_id,
            max_attempts=max_attempts,
            timeout_s=timeout_s,
            lease_ttl_s=lease_ttl_s,
            resume=resume,
        )
        return int(reply["total"])

    def cache_pass(self, *, force: bool) -> dict[str, Any]:
        """Server-side cache pass; returns the hits' metrics by cell id."""
        return self.fetch(list(self._call("cache_pass", force=force)["cached"]))

    def resolved_snapshot(self) -> tuple[set[str], dict[str, dict[str, Any]]]:
        reply = self._call("resolved")
        return set(reply["completed"]), dict(reply["failed"])

    def fetch(self, cell_ids: list[str]) -> dict[str, Any]:
        metrics: dict[str, Any] = {}
        for start in range(0, len(cell_ids), 256):
            batch = cell_ids[start:start + 256]
            metrics.update(self._call("fetch", cell_ids=batch)["metrics"])
        return metrics

    def status_snapshot(self) -> dict[str, Any]:
        return dict(self._call("status")["snapshot"])

    def request_stop(self, reason: str = "coordinator") -> None:
        self._call("stop", reason=reason)
        self._stop_cached = True

    def event(self, kind: str, **fields: Any) -> None:
        self._call("event", kind=kind, fields=fields)

    # -- WorkerTransport: attach ---------------------------------------------------

    def wait_ready(self, *, timeout_s: float, poll_s: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout_s
        quick = RetryPolicy(attempts=1)
        last_error: str = "campaign not published yet"
        while True:
            try:
                reply = self._call("manifest", policy=quick)
                if reply.get("ready"):
                    self._manifest = dict(reply["manifest"])
                    return self._manifest
            except TransportError as exc:
                last_error = str(exc)
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"no campaign on {self.host}:{self.port} after "
                    f"{timeout_s:.0f}s: {last_error}"
                )
            time.sleep(min(poll_s, 0.5))

    def initial_resolved(self) -> set[str]:
        completed, failed = self.resolved_snapshot()
        return completed | {c for c, rec in failed.items() if rec.get("final")}

    # -- WorkerTransport: queue ----------------------------------------------------

    def stop_requested(self) -> bool:
        # Served from the last heartbeat reply: the worker checks this
        # before every claim, and a per-cell network round trip would
        # double the request rate for a bit that changes once per
        # campaign.  Freshness is one heartbeat interval (ttl / 3).
        return self._stop_cached

    def claim(self, cell_id: str, label: str, token: str) -> ClaimReply:
        reply = self._call("claim", cell_id=cell_id, label=label, token=token)
        return ClaimReply(reply["status"], attempt=int(reply.get("attempt", 1)))

    def release(self, cell_id: str) -> None:
        self._call("release", cell_id=cell_id)

    def renew(self, cell_id: str) -> None:
        try:
            self._call("renew", cell_id=cell_id)
        except TransportError:
            pass  # lease renewal is best-effort; expiry just re-issues

    def heartbeat(self, **status: Any) -> None:
        try:
            reply = self._call("heartbeat", **status)
        except TransportError:
            return  # a missed beat is not fatal; the main loop reconnects
        self._stop_cached = bool(reply.get("stop"))

    # -- WorkerTransport: resolution -----------------------------------------------

    def begin(self, cell_id: str, label: str, attempt: int) -> None:
        # The server journals cell_start inside the claim grant (one
        # round trip, and the event is exactly as durable); nothing to do.
        return None

    def submit(
        self,
        cell_id: str,
        label: str,
        metrics: dict[str, Any],
        *,
        attempt: int,
        wall_time_s: float,
        token: str,
    ) -> None:
        # Write-ahead: spool first so the computed result survives both a
        # lost server and our own death mid-call; unspool only on ACK.
        self.spool.add(
            cell_id=cell_id,
            label=label,
            metrics=metrics,
            attempt=attempt,
            wall_time_s=round(wall_time_s, 6),
            token=token,
        )
        self._call(
            "submit",
            cell_id=cell_id,
            label=label,
            metrics=metrics,
            attempt=attempt,
            wall_time_s=round(wall_time_s, 6),
            token=token,
        )
        self.spool.remove(token)

    def fail(self, cell_id: str, label: str, error: str, token: str) -> dict[str, Any]:
        reply = self._call(
            "fail", cell_id=cell_id, label=label, error=error, token=token
        )
        return {"attempts": reply["attempts"], "final": reply["final"]}

    def interrupted(self, cell_id: str, label: str) -> None:
        try:
            self._call(
                "interrupted",
                cell_id=cell_id,
                label=label,
                policy=RetryPolicy(attempts=2, base_delay_s=0.05),
            )
        except TransportError:
            pass  # best effort on the way out of a signal

    # -- WorkerTransport: idle-pass helpers ----------------------------------------

    def poll_resolved(self) -> set[str] | None:
        return self.initial_resolved()

    def flush_spool(self) -> int:
        flushed = 0
        for entry in self.spool.entries():
            self._call(
                "submit",
                cell_id=entry["cell_id"],
                label=entry.get("label", entry["cell_id"]),
                metrics=entry["metrics"],
                attempt=int(entry.get("attempt", 1)),
                wall_time_s=entry.get("wall_time_s"),
                token=entry["token"],
            )
            self.spool.remove(entry["token"])
            flushed += 1
        return flushed

    def spooled(self) -> int:
        return len(self.spool)

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._drop_connection()
