"""Tests for the network sweep transport and its chaos harness.

Three layers, matching the module boundaries:

* framing — the length-prefixed JSON codec's failure taxonomy;
* protocol — :meth:`SweepServer.handle` is a pure dict-in/dict-out
  function, so every idempotency invariant (claim re-grant, submit
  dedupe, fail-token dedupe, restart resume) is pinned without sockets,
  with an injectable clock for lease expiry;
* chaos — the equivalence gate: a campaign run through a
  :class:`ChaosProxy` injecting resets/truncation/delays/duplication
  (and through a real server SIGKILL + restart) must fold to the same
  result rows as single-process ``run_campaign``, with exactly one
  resolving journal event per cell.

The hypothesis property test at the bottom drives the *same* op
sequences through both transports (filesystem and network) and asserts
the lease protocol's core promises — single winner, no lost cells —
hold under claim retries, releases, failures, and lease expiry.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import struct
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.chaos_net import ChaosProxy, sigkill_server, spawn_server
from repro.common.retry import RetryPolicy
from repro.dse import SweepGrid, run_campaign, validation_sweep
from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib import (
    TransportError,
    campaign_snapshot,
    load_manifest,
    manifest_cells,
    render_status,
    run_worker,
    write_manifest,
)
from repro.dse.distrib import queue as layout
from repro.dse.distrib.net import NetTransport, ResultSpool, SweepServer
from repro.dse.distrib.net.framing import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameAssembler,
    FrameError,
    FrameTooLarge,
    TruncatedFrame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.dse.distrib.net.server import PROTOCOL_VERSION
from repro.dse.runner import CellResult
from repro.dse.distrib.transport import (
    CLAIM_BUSY,
    CLAIM_CACHED,
    CLAIM_FAILED_FINAL,
    CLAIM_GRANTED,
    CLAIM_RESOLVED,
    FsTransport,
)

TINY = validation_sweep({"wifi_tx": 1})

#: Fast-failing client policy for tests that point at dead servers.
QUICK = RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.05)


def tiny_grid(configs=("2C+1F", "3C+0F"), policies=("frfs", "met"),
              seeds=(None,)) -> SweepGrid:
    return SweepGrid(configs=configs, policies=policies, workloads=(TINY,),
                     seeds=seeds)


def norm(rows, also=()):
    """Result rows modulo attribution: the equivalence-gate comparison."""
    drop = ("worker", "wall_time_s", *also)
    out = []
    for row in sorted(rows, key=lambda r: r["cell_id"]):
        out.append({k: v for k, v in row.items() if k not in drop})
    return out


def resolving_events_per_cell(path: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in journal_mod.read_events(path):
        if event["event"] in (journal_mod.EVENT_CELL_FINISH,
                              journal_mod.EVENT_CELL_CACHED):
            cid = event["cell_id"]
            counts[cid] = counts.get(cid, 0) + 1
    return counts


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def publish(server: SweepServer, cells, *, max_attempts=2, resume=False):
    reply = server.handle({
        "op": "publish",
        "cells": [c.to_dict() for c in cells],
        "grid_id": "test",
        "max_attempts": max_attempts,
        "timeout_s": None,
        "lease_ttl_s": 10.0,
        "resume": resume,
    })
    assert reply["ok"], reply
    return reply


def live_server(out_dir, **kw):
    """(server, host, port, stop_event, thread) — caller stops and joins."""
    server = SweepServer(out_dir, **kw)
    host, port = server.bind()
    stop = threading.Event()
    thread = threading.Thread(
        target=server.serve, kwargs={"stop": stop, "poll_s": 0.05},
        daemon=True,
    )
    thread.start()
    return server, host, port, stop, thread


# -- framing ------------------------------------------------------------------------


class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            doc = {"op": "ping", "n": [1, 2, 3], "s": "héllo"}
            send_frame(a, doc)
            assert recv_frame(b) == doc
        finally:
            a.close()
            b.close()

    def test_assembler_handles_byte_at_a_time_delivery(self):
        assembler = FrameAssembler()
        wire = encode_frame({"a": 1}) + encode_frame({"b": 2})
        frames = []
        for i in range(len(wire)):
            assembler.feed(wire[i:i + 1])
            frames.extend(assembler.frames())
        assert frames == [{"a": 1}, {"b": 2}]

    def test_eof_at_boundary_is_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_mid_frame_is_truncated(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"partial": tru')
            a.close()
            with pytest.raises(TruncatedFrame):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameTooLarge):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_errors_are_oserrors(self):
        # The retry layer guards socket calls with `isinstance(exc,
        # OSError)`; a framing failure that escaped it would crash a
        # worker instead of retrying.
        for exc_type in (FrameError, ConnectionClosed, TruncatedFrame,
                         FrameTooLarge):
            assert issubclass(exc_type, OSError)

    def test_undecodable_body_is_frame_error(self):
        assembler = FrameAssembler()
        assembler.feed(struct.pack(">I", 3) + b"\xff\xfe\x00")
        with pytest.raises(FrameError):
            assembler.frames()


# -- protocol (pure handle(), no sockets) --------------------------------------------


class TestServerProtocol:
    def _server(self, tmp_path, **kw):
        clock = FakeClock()
        server = SweepServer(tmp_path, lease_ttl_s=10.0, monotonic=clock, **kw)
        return server, clock

    @pytest.mark.parametrize("ttl", [float("nan"), 0, -5.0])
    def test_a_lease_ttl_out_of_range_is_named_before_anything_opens(
        self, tmp_path, ttl
    ):
        with pytest.raises(ValueError, match="lease_ttl_s \\(--lease-ttl\\)"):
            SweepServer(tmp_path, lease_ttl_s=ttl)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ttl", [float("nan"), -5.0])
    def test_a_published_lease_ttl_out_of_range_is_an_error_reply(
        self, tmp_path, ttl
    ):
        """A coordinator on the wire could publish a NaN or negative ttl,
        and the server wrote it into the manifest."""
        server, _ = self._server(tmp_path)
        try:
            reply = server.handle({
                "op": "publish", "rid": "c:1", "grid_id": "test",
                "cells": [c.to_dict() for c in tiny_grid().expand()],
                "lease_ttl_s": ttl,
            })
            assert reply["ok"] is False and "--lease-ttl" in reply["error"]
            assert server.manifest is None
            assert not (tmp_path / "distrib" / "manifest.json").exists()
        finally:
            server.close()

    def test_unknown_op_is_an_error_reply_with_rid(self, tmp_path):
        server, _ = self._server(tmp_path)
        try:
            reply = server.handle({"op": "explode", "rid": "x:1"})
            assert reply["ok"] is False
            assert reply["rid"] == "x:1"
        finally:
            server.close()

    def test_hello_rejects_wrong_protocol(self, tmp_path):
        server, _ = self._server(tmp_path)
        try:
            assert not server.handle(
                {"op": "hello", "proto": PROTOCOL_VERSION + 1}
            )["ok"]
            assert server.handle(
                {"op": "hello", "proto": PROTOCOL_VERSION}
            )["ok"]
        finally:
            server.close()

    def test_claim_retry_with_same_token_regrants_without_rejournal(
            self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        try:
            publish(server, cells)
            cid = cells[0].cell_id
            first = server.handle({"op": "claim", "cell_id": cid,
                                   "worker": "w0", "token": "t1"})
            assert first["status"] == CLAIM_GRANTED
            # The ACK was "lost"; the worker retries the identical claim.
            again = server.handle({"op": "claim", "cell_id": cid,
                                   "worker": "w0", "token": "t1"})
            assert again["status"] == CLAIM_GRANTED
            assert again["attempt"] == first["attempt"]
            starts = [e for e in journal_mod.read_events(server.journal_path)
                      if e["event"] == journal_mod.EVENT_CELL_START]
            assert len(starts) == 1
        finally:
            server.close()

    def test_claim_same_worker_new_token_is_a_restart_and_rejournals(
            self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        try:
            publish(server, cells)
            cid = cells[0].cell_id
            server.handle({"op": "claim", "cell_id": cid,
                           "worker": "w0", "token": "t1"})
            # Same worker id, fresh token: a restarted worker process
            # re-claiming its own stuck lease.
            reply = server.handle({"op": "claim", "cell_id": cid,
                                   "worker": "w0", "token": "t2"})
            assert reply["status"] == CLAIM_GRANTED
            starts = [e for e in journal_mod.read_events(server.journal_path)
                      if e["event"] == journal_mod.EVENT_CELL_START]
            assert len(starts) == 2
        finally:
            server.close()

    def test_lease_expiry_hands_the_cell_to_a_peer(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, clock = self._server(tmp_path)
        try:
            publish(server, cells)
            cid = cells[0].cell_id
            assert server.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w0", "token": "a"}
                                 )["status"] == CLAIM_GRANTED
            busy = server.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w1", "token": "b"})
            assert busy["status"] == CLAIM_BUSY
            assert busy["holder"] == "w0"
            clock.advance(11.0)  # past the 10 s ttl
            assert server.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w1", "token": "b"}
                                 )["status"] == CLAIM_GRANTED
            assert server.leases_expired == 1
        finally:
            server.close()

    def test_renew_extends_the_lease(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, clock = self._server(tmp_path)
        try:
            publish(server, cells)
            cid = cells[0].cell_id
            server.handle({"op": "claim", "cell_id": cid,
                           "worker": "w0", "token": "a"})
            clock.advance(8.0)
            assert server.handle({"op": "renew", "cell_id": cid,
                                  "worker": "w0"})["renewed"]
            clock.advance(8.0)  # 16 s total: dead without the renewal
            assert server.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w1", "token": "b"}
                                 )["status"] == CLAIM_BUSY
        finally:
            server.close()

    def test_submit_dedupe_keeps_the_first_result(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        try:
            publish(server, cells)
            cid = cells[0].cell_id
            server.handle({"op": "claim", "cell_id": cid,
                           "worker": "w0", "token": "a"})
            first = server.handle({
                "op": "submit", "cell_id": cid, "label": "x",
                "metrics": {"makespan_ms": 1.5}, "attempt": 1,
                "wall_time_s": 0.1, "worker": "w0", "token": "a",
            })
            assert first == {"accepted": True, "dedupe": False, "ok": True}
            # A retried submit after a dropped ACK — and a late submit
            # from a second worker that executed a re-issued cell — must
            # both fold as dedupes, preserving the first result.
            dup = server.handle({
                "op": "submit", "cell_id": cid, "label": "x",
                "metrics": {"makespan_ms": 9.9}, "attempt": 2,
                "wall_time_s": 0.1, "worker": "w1", "token": "b",
            })
            assert dup["dedupe"] is True
            fetched = server.handle({"op": "fetch", "cell_ids": [cid]})
            assert fetched["metrics"][cid]["makespan_ms"] == 1.5
            finishes = [e for e in journal_mod.read_events(server.journal_path)
                        if e["event"] == journal_mod.EVENT_CELL_FINISH]
            assert len(finishes) == 1
            assert server.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w2", "token": "c"}
                                 )["status"] == CLAIM_RESOLVED
        finally:
            server.close()

    def test_fail_retry_with_same_token_charges_one_attempt(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        try:
            publish(server, cells, max_attempts=2)
            cid = cells[0].cell_id
            server.handle({"op": "claim", "cell_id": cid,
                           "worker": "w0", "token": "a"})
            first = server.handle({"op": "fail", "cell_id": cid,
                                   "worker": "w0", "error": "boom",
                                   "token": "a"})
            assert first["attempts"] == 1 and not first["final"]
            # Retried failure report (dropped ACK): same token, no
            # double charge — the cell keeps its second attempt.
            again = server.handle({"op": "fail", "cell_id": cid,
                                   "worker": "w0", "error": "boom",
                                   "token": "a"})
            assert again["attempts"] == 1 and again["dedupe"]
            fresh = server.handle({"op": "fail", "cell_id": cid,
                                   "worker": "w0", "error": "boom",
                                   "token": "b"})
            assert fresh["attempts"] == 2 and fresh["final"]
        finally:
            server.close()

    def test_restart_resumes_completed_set_from_journal(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        cid = cells[0].cell_id
        publish(server, cells)
        server.handle({"op": "claim", "cell_id": cid,
                       "worker": "w0", "token": "a"})
        server.handle({"op": "submit", "cell_id": cid, "label": "x",
                       "metrics": {"makespan_ms": 2.0}, "attempt": 1,
                       "wall_time_s": 0.1, "worker": "w0", "token": "a"})
        server.close()  # simulate death; durable state only

        reborn = SweepServer(tmp_path, lease_ttl_s=10.0,
                             monotonic=FakeClock())
        try:
            assert cid in reborn.completed
            assert reborn.manifest is not None  # re-adopted from disk
            assert reborn.leases == {}  # volatile, by design
            assert reborn.handle({"op": "claim", "cell_id": cid,
                                  "worker": "w1", "token": "b"}
                                 )["status"] == CLAIM_RESOLVED
        finally:
            reborn.close()

    def test_fresh_publish_drops_the_index_sidecar_before_truncating(
            self, tmp_path, monkeypatch):
        # The sidecar describes the journal about to be truncated; a new
        # journal of the same head and length would pass its checks.
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        publish(server, cells)
        server.handle({"op": "submit", "cell_id": cells[0].cell_id,
                       "metrics": {"makespan_ms": 2.0}, "worker": "w0"})
        server.close()
        idx = journal_mod.index_path(server.journal_path)
        assert idx.exists()

        reborn, _ = self._server(tmp_path)
        sidecar_at_truncation = []
        opened = journal_mod.Journal.__init__

        def spy(journal, path, *, resume=False):
            if not resume:
                sidecar_at_truncation.append(idx.exists())
            opened(journal, path, resume=resume)

        monkeypatch.setattr(journal_mod.Journal, "__init__", spy)
        try:
            publish(reborn, cells, resume=False)
            assert sidecar_at_truncation == [False]
            assert not idx.exists() and reborn.completed == set()
            # and the status counters start over with the campaign: two
            # fresh cache passes used to read as a 200 % cache hit rate
            for _ in range(2):
                publish(reborn, cells, resume=False)
                reborn.handle({"op": "cache_pass"})
            assert reborn.snapshot()["cache_hit_rate"] == 1.0
        finally:
            reborn.close()

    def test_claim_of_unknown_cell_is_rejected(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, _ = self._server(tmp_path)
        try:
            publish(server, cells)
            reply = server.handle({"op": "claim", "cell_id": "nonsense",
                                   "worker": "w0", "token": "a"})
            assert reply["ok"] is False
        finally:
            server.close()


# -- spool ---------------------------------------------------------------------------


class TestResultSpool:
    def test_add_entries_remove(self, tmp_path):
        spool = ResultSpool(tmp_path / "spool")
        spool.add(cell_id="c1", label="l1", metrics={"makespan_ms": 1.0},
                  attempt=1, wall_time_s=0.5, token="tok-1")
        assert len(spool) == 1
        (entry,) = spool.entries()
        assert entry["cell_id"] == "c1" and entry["token"] == "tok-1"
        spool.remove("tok-1")
        assert len(spool) == 0
        spool.remove("tok-1")  # idempotent

    def test_torn_entries_are_skipped(self, tmp_path):
        root = tmp_path / "spool"
        spool = ResultSpool(root)
        spool.add(cell_id="c1", label="l1", metrics={}, attempt=1,
                  wall_time_s=0.5, token="good")
        (root / "torn.json").write_text('{"cell_id": "c2", "metr')
        assert [e["token"] for e in spool.entries()] == ["good"]

    def test_submit_spools_on_dead_server_then_flushes(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        cid, label = cells[0].cell_id, cells[0].label

        # Find a port with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        spool_dir = tmp_path / "spool"
        lost = NetTransport(("127.0.0.1", dead_port), worker_id="w0",
                            spool_dir=spool_dir, policy=QUICK,
                            call_timeout_s=0.5)
        with pytest.raises(TransportError):
            lost.submit(cid, label, {"makespan_ms": 3.0},
                        attempt=1, wall_time_s=0.2, token="tok-1")
        assert lost.spooled() == 1  # write-ahead: the result survived
        lost.close()

        server, host, port, stop, thread = live_server(tmp_path / "srv")
        try:
            coord = NetTransport((host, port), worker_id="coordinator",
                                 spool_dir=tmp_path / "cs")
            coord.publish([c.to_dict() for c in cells], grid_id="t",
                          max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            # The next worker on this machine inherits the spool dir and
            # delivers its predecessor's unacknowledged result.
            heir = NetTransport((host, port), worker_id="w0b",
                                spool_dir=spool_dir)
            assert heir.flush_spool() == 1
            assert heir.spooled() == 0
            assert cid in heir.initial_resolved()
            assert heir.flush_spool() == 0  # nothing left
            coord.close()
            heir.close()
        finally:
            stop.set()
            thread.join(timeout=5)


# -- worker degradation ---------------------------------------------------------------


class TestWorkerDegradation:
    def test_worker_exits_server_lost_after_reconnect_budget(self, tmp_path):
        cells = tiny_grid().expand()  # 4 cells: the campaign outlives the kill
        server, host, port, stop, thread = live_server(tmp_path / "srv")
        coord = NetTransport((host, port), worker_id="coordinator",
                             spool_dir=tmp_path / "cs")
        coord.publish([c.to_dict() for c in cells], grid_id="t",
                      max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                      resume=False)

        def kill_server() -> None:
            if not stop.is_set():
                stop.set()
                thread.join(timeout=5)

        class ServerDiesAtSubmit(NetTransport):
            """The partition lands exactly between execute and submit —
            the worst moment: the result exists only on the worker."""

            def submit(self, *args, **kwargs):
                kill_server()
                return super().submit(*args, **kwargs)

        summary_box = {}

        def work():
            transport = ServerDiesAtSubmit(
                (host, port), worker_id="w0",
                spool_dir=tmp_path / "spool", policy=QUICK,
                call_timeout_s=1.0,
            )
            summary_box["summary"] = run_worker(
                transport=transport, worker_id="w0",
                poll_s=0.05, reconnect_budget_s=2.0,
            )

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(timeout=60)
        try:
            assert not worker.is_alive()
            summary = summary_box["summary"]
            assert summary.stop_reason == "server_lost"
            assert summary.disconnects >= 1
            # The in-flight cell was finished, not abandoned — and its
            # result is safe in the local spool awaiting reconnection.
            assert summary.executed >= 1
            assert summary.spooled >= 1
            spooled = list(ResultSpool(tmp_path / "spool").entries())
            assert spooled and spooled[0]["metrics"].get("makespan_ms")
            coord.close()
        finally:
            kill_server()


# -- chaos equivalence gate ------------------------------------------------------------


class TestChaosEquivalence:
    def test_chaos_ridden_campaign_matches_single_process(self, tmp_path):
        grid = tiny_grid()
        single = run_campaign(grid, out_dir=tmp_path / "single")
        assert single.ok

        srv_out = tmp_path / "srv"
        proc, host, port = spawn_server(srv_out, lease_ttl_s=10.0)
        try:
            with ChaosProxy((host, port), seed=7, p_reset=0.04,
                            p_truncate=0.02, p_delay=0.04,
                            p_duplicate=0.04, delay_s=0.05) as proxy:
                net = run_campaign(
                    grid, out_dir=tmp_path / "net",
                    server=f"127.0.0.1:{proxy.port}",
                    workers=0,  # embedded worker — also behind the proxy
                    poll_s=0.05,
                )
                injected = sum(v for k, v in proxy.events.items()
                               if k != "pass")
            assert net.ok
            # The gate: chaos changed nothing about the folded results.
            assert norm(net.rows()) == norm(single.rows())
            # The chaos actually happened (a proxy that injected nothing
            # would make this test vacuous).
            assert injected >= 3, dict(proxy.events)
            # Exactly-once folding: one resolving event per cell in the
            # server's canonical journal, despite every retry.
            counts = resolving_events_per_cell(srv_out / "journal.jsonl")
            assert counts == {c.cell_id: 1 for c in grid.expand()}
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=10)

    def test_server_sigkill_restart_loses_and_duplicates_nothing(
            self, tmp_path):
        grid = tiny_grid()
        cells = grid.expand()
        single = run_campaign(grid, out_dir=tmp_path / "single")
        assert single.ok

        srv_out = tmp_path / "srv"
        journal_path = srv_out / "journal.jsonl"
        proc, host, port = spawn_server(srv_out, lease_ttl_s=10.0)
        restarted = None
        try:
            # The kill lands at a counted point, not a timed one: a worker
            # capped at two cells has come and gone, so exactly half the
            # campaign is durable on the server when it dies.
            coord = NetTransport((host, port), worker_id="coordinator",
                                 spool_dir=tmp_path / "cs")
            coord.publish([c.to_dict() for c in cells], grid_id=grid.grid_id,
                          max_attempts=2, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            first = run_worker(
                transport=NetTransport((host, port), worker_id="first",
                                       spool_dir=tmp_path / "spool-first"),
                max_cells=2, poll_s=0.05,
            )
            assert first.stop_reason == "max_cells"
            before_kill, _failed = coord.resolved_snapshot()
            coord.close()
            assert 0 < len(before_kill) < len(cells)

            # SIGKILL: no cleanup handler runs, leases evaporate.  The
            # restart on the same port and directory is ready once it has
            # announced its endpoint (spawn_server waits for that), and
            # its journal/index replay must resume with nothing lost.
            sigkill_server(proc)
            restarted, _, _ = spawn_server(srv_out, port=port,
                                           lease_ttl_s=10.0)
            net = run_campaign(
                grid, out_dir=tmp_path / "net", server=f"{host}:{port}",
                workers=1, resume=True, poll_s=0.1,
            )
            assert net.ok
            # Nothing lost: what finished before the kill is a cache hit
            # now, the rest was executed by the resumed fleet ...
            assert {r.cell.cell_id for r in net if r.cached} == before_kill
            assert net.executed == len(cells) - len(before_kill)
            assert norm(net.rows(), also=("cached",)) == norm(
                single.rows(), also=("cached",))
            # ... and nothing duplicated, across both server lifetimes.
            counts = resolving_events_per_cell(journal_path)
            assert counts == {c.cell_id: 1 for c in cells}
        finally:
            for p in (proc, restarted):
                if p is not None and p.poll() is None:
                    p.terminate()
                    p.wait(timeout=10)


# -- one campaign driver, three modes --------------------------------------------------


@pytest.fixture(params=["jobs", "workers", "server"])
def campaign_mode(request, tmp_path):
    """``(run_campaign kwargs, canonical journal path)`` for each mode."""
    out = tmp_path / "camp"
    if request.param == "jobs":
        yield {"out_dir": out}, out / "journal.jsonl"
    elif request.param == "workers":
        yield ({"out_dir": out, "workers": 0, "poll_s": 0.05},
               out / "journal.jsonl")
    else:
        srv = tmp_path / "srv"
        _server, host, port, stop, thread = live_server(srv)
        try:
            yield ({"out_dir": out, "server": f"{host}:{port}", "workers": 0,
                    "poll_s": 0.05}, srv / "journal.jsonl")
        finally:
            stop.set()
            thread.join(timeout=5)


class TestCampaignModes:
    def test_every_mode_matches_the_in_memory_campaign(self, campaign_mode):
        kwargs, journal_path = campaign_mode
        grid = tiny_grid()
        reference = run_campaign(grid)
        campaign = run_campaign(grid, **kwargs)
        assert campaign.ok and reference.ok
        assert norm(campaign.rows(), also=("cached",)) == norm(
            reference.rows(), also=("cached",))
        counts = resolving_events_per_cell(journal_path)
        assert counts == {c.cell_id: 1 for c in grid.expand()}

    def test_resume_force_recomputes_every_cell(self, campaign_mode):
        # --resume --force used to mean three things: the fleet modes
        # dropped the cache entries, believed the journal's completed
        # set, ran nothing and returned ok rows without metrics.
        kwargs, _journal_path = campaign_mode
        grid = tiny_grid()
        assert run_campaign(grid, **kwargs).executed == 4
        again = run_campaign(grid, resume=True, force=True, **kwargs)
        assert again.ok
        assert again.executed == 4 and again.cached_hits == 0
        assert all(r.metrics and r.metrics["makespan_ms"] > 0 for r in again)
        # and what it recomputed is what a later run finds
        assert run_campaign(grid, resume=True, **kwargs).cached_hits == 4

    def test_resuming_twice_resolves_each_cell_once(self, campaign_mode):
        # The directory's cache pass used to journal cell_cached for hits
        # the resumed journal had already resolved: three resolving
        # events per cell after two resumes, and a 200 % cache hit rate.
        kwargs, journal_path = campaign_mode
        grid = tiny_grid()
        assert run_campaign(grid, **kwargs).executed == 4
        for _ in range(2):
            again = run_campaign(grid, resume=True, **kwargs)
            assert again.executed == 0 and again.cached_hits == 4
        assert resolving_events_per_cell(journal_path) == {
            c.cell_id: 1 for c in grid.expand()
        }
        if "server" in kwargs:
            status = NetTransport(kwargs["server"], worker_id="status",
                                  spool_dir=kwargs["out_dir"] / "status-spool")
            snap = status.status_snapshot()
            status.close()
        elif "workers" in kwargs:
            snap = campaign_snapshot(kwargs["out_dir"])
        else:
            return  # a local campaign has no fleet status
        assert snap["resolved"] == 4
        assert 0.0 <= snap["cache_hit_rate"] <= 1.0

    def test_cell_cached_carries_the_same_keys_in_every_mode(
            self, campaign_mode):
        # The server's cache-pass and cached-under-claim records used to
        # carry four keys where the directory's cache pass carried six.
        six = {"cell_id", "label", "makespan_ms", "attempts", "worker",
               "wall_time_s"}

        def cached_events(path):
            found = [e for e in journal_mod.read_events(path)
                     if e["event"] == journal_mod.EVENT_CELL_CACHED]
            for event in found:
                assert six <= set(event), sorted(event)
                assert event["makespan_ms"] > 0 and event["wall_time_s"] > 0
            return found

        kwargs, journal_path = campaign_mode
        grid = tiny_grid()
        cell = grid.expand()[0]
        assert run_campaign(grid, **kwargs).executed == 4
        # written by the cache pass: a fresh run over the filled cache
        assert run_campaign(grid, **kwargs).cached_hits == 4
        passed = cached_events(journal_path)
        assert len(passed) == 4
        assert {e["worker"] for e in passed} == {"coordinator"}
        # written by a claim that finds the entry (a local run has none)
        if "server" in kwargs:
            probe = NetTransport(kwargs["server"], worker_id="probe",
                                 spool_dir=kwargs["out_dir"] / "probe-spool")
            probe.publish([c.to_dict() for c in grid.expand()], grid_id="t",
                          max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            claimed_into = journal_path
        elif "workers" in kwargs:
            probe = FsTransport(kwargs["out_dir"], worker_id="probe")
            probe.wait_ready(timeout_s=2.0, poll_s=0.05)
            claimed_into = (kwargs["out_dir"] / "distrib" / "journals"
                            / "probe.jsonl")
        else:
            return
        assert probe.claim(cell.cell_id, cell.label, "t1").status == CLAIM_CACHED
        probe.release(cell.cell_id)
        probe.close()
        (claimed,) = cached_events(claimed_into)
        assert claimed["worker"] == "probe" and claimed["attempts"] == 0

    def test_kill_inside_the_cache_pass_loses_nothing(
        self, campaign_mode, monkeypatch
    ):
        # The cache pass journals its hits in one batch.  Dying after the
        # cache was read but before that batch is written must cost
        # nothing: a hit's durable result is its cache entry.
        kwargs, journal_path = campaign_mode
        grid = tiny_grid()
        first = run_campaign(grid, **kwargs)
        assert first.executed == 4

        def killed(self, event, records):
            raise RuntimeError("killed before the batch was written")

        with monkeypatch.context() as patch:
            patch.setattr(journal_mod.Journal, "append_many", killed)
            with pytest.raises((RuntimeError, TransportError), match="killed"):
                run_campaign(grid, **kwargs)
        assert resolving_events_per_cell(journal_path) == {}

        rerun = run_campaign(grid, **kwargs)
        assert rerun.ok and rerun.executed == 0 and rerun.cached_hits == 4
        assert norm(rerun.rows(), also=("cached",)) == norm(
            first.rows(), also=("cached",))
        assert resolving_events_per_cell(journal_path) == {
            c.cell_id: 1 for c in grid.expand()
        }


# -- clock skew in status (satellite) --------------------------------------------------


class TestStatusClockSkew:
    def _campaign_dir(self, tmp_path, beat_ahead_s):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        write_manifest(tmp_path, cells, grid_id="t", max_attempts=1,
                       timeout_s=None, lease_ttl_s=30.0)
        layout.write_worker_status(
            tmp_path, "w0", ts=time.time() + beat_ahead_s,
            state="running", current_cell=None, cells_done=0,
        )

    def test_future_heartbeat_is_clamped_and_flagged(self, tmp_path):
        self._campaign_dir(tmp_path, beat_ahead_s=30.0)
        snap = campaign_snapshot(tmp_path)
        (worker,) = [w for w in snap["workers"] if w["worker"] == "w0"]
        assert worker["heartbeat_age_s"] == 0.0  # clamped, not negative
        assert worker["clock_skew"] is True
        assert worker["health"] == "live"  # it just wrote; it is alive
        assert snap["clock_skew"] is True
        assert "clocks are skewed" in render_status(snap)

    def test_subsecond_future_ts_is_rounding_noise_not_skew(self, tmp_path):
        self._campaign_dir(tmp_path, beat_ahead_s=0.3)
        snap = campaign_snapshot(tmp_path)
        (worker,) = [w for w in snap["workers"] if w["worker"] == "w0"]
        assert worker["heartbeat_age_s"] == 0.0
        assert worker["clock_skew"] is False
        assert snap["clock_skew"] is False


# -- property-based lease protocol (both transports) -----------------------------------


class NetLeaseAdapter:
    """Drive the lease protocol through ``SweepServer.handle``."""

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="dssoc-prop-net-"))
        self.clock = FakeClock()
        self.server = SweepServer(self.root, lease_ttl_s=10.0,
                                  monotonic=self.clock)
        (self.cell,) = tiny_grid(configs=("2C+1F",),
                                 policies=("frfs",)).expand()
        publish(self.server, [self.cell], max_attempts=2)
        self.cell_id = self.cell.cell_id

    def claim(self, worker: str, token: str) -> str:
        reply = self.server.handle({"op": "claim", "cell_id": self.cell_id,
                                    "worker": worker, "token": token})
        assert reply["ok"], reply
        return reply["status"]

    def begin(self, worker: str, token: str) -> None:
        pass  # the server journals cell_start inside the claim grant

    def release(self, worker: str) -> None:
        self.server.handle({"op": "release", "cell_id": self.cell_id,
                            "worker": worker})

    def submit(self, worker: str, token: str) -> None:
        reply = self.server.handle({
            "op": "submit", "cell_id": self.cell_id, "label": "x",
            "metrics": {"makespan_ms": 1.0}, "attempt": 1,
            "wall_time_s": 0.1, "worker": worker, "token": token,
        })
        assert reply["ok"], reply

    def fail(self, worker: str, token: str) -> dict:
        reply = self.server.handle({
            "op": "fail", "cell_id": self.cell_id, "worker": worker,
            "error": "induced", "token": token,
        })
        assert reply["ok"], reply
        return reply

    def expire(self) -> None:
        self.clock.advance(11.0)

    def close(self) -> None:
        self.server.close()
        shutil.rmtree(self.root, ignore_errors=True)


class FsLeaseAdapter:
    """Drive the same protocol through the directory transport."""

    def __init__(self) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="dssoc-prop-fs-"))
        (self.cell,) = tiny_grid(configs=("2C+1F",),
                                 policies=("frfs",)).expand()
        write_manifest(self.root, [self.cell], grid_id="prop",
                       max_attempts=2, timeout_s=None, lease_ttl_s=10.0)
        self.cell_id = self.cell.cell_id
        self.transports: dict[str, FsTransport] = {}

    def _transport(self, worker: str) -> FsTransport:
        if worker not in self.transports:
            t = FsTransport(self.root, worker_id=worker, lease_ttl_s=10.0)
            t.wait_ready(timeout_s=2.0, poll_s=0.05)
            self.transports[worker] = t
        return self.transports[worker]

    def claim(self, worker: str, token: str) -> str:
        return self._transport(worker).claim(
            self.cell_id, self.cell.label, token
        ).status

    def begin(self, worker: str, token: str) -> None:
        self._transport(worker).begin(self.cell_id, self.cell.label, 1)

    def release(self, worker: str) -> None:
        self._transport(worker).release(self.cell_id)

    def submit(self, worker: str, token: str) -> None:
        self._transport(worker).submit(
            self.cell_id, self.cell.label, {"makespan_ms": 1.0},
            attempt=1, wall_time_s=0.1, token=token,
        )

    def fail(self, worker: str, token: str) -> dict:
        return self._transport(worker).fail(
            self.cell_id, self.cell.label, "induced", token
        )

    def expire(self) -> None:
        # Partition simulation: the holder stops heartbeating, so its
        # lease files age past the ttl.
        past = time.time() - 3600.0
        for path in self.root.glob("distrib/leases/*.lease"):
            try:
                os.utime(path, (past, past))
            except OSError:
                pass

    def close(self) -> None:
        for t in self.transports.values():
            t.close()
        shutil.rmtree(self.root, ignore_errors=True)


OPS = st.lists(
    st.sampled_from([
        ("claim", 0), ("claim", 1), ("retry", 0), ("retry", 1),
        ("release", 0), ("release", 1),
        ("submit", 0), ("submit", 1),
        ("fail", 0), ("fail", 1),
        ("expire", None),
    ]),
    max_size=14,
)


def _drive_lease_protocol(adapter, ops) -> None:
    """Apply an op sequence, asserting single-winner + no lost cells.

    The model deliberately tracks only what both transports promise:
    who holds a live grant, whether the cell completed, and whether its
    attempt budget is spent.  Transport-specific shapes (net re-grants
    its own holder, fs reports BUSY to it; completed reads back as
    RESOLVED on net and CACHED on fs) are both accepted — the invariant
    is that a grant NEVER goes to a second worker while the first's
    lease is live, and the cell is never stranded.
    """
    try:
        holder: str | None = None
        completed = False
        final = False
        tokens: dict[str, str] = {}
        seq = 0
        for op, idx in ops:
            if op == "expire":
                adapter.expire()
                holder = None
                continue
            worker = f"w{idx}"
            if op in ("claim", "retry"):
                if op == "retry" and worker in tokens:
                    token = tokens[worker]  # idempotent replay
                else:
                    seq += 1
                    token = f"{worker}-t{seq}"
                    tokens[worker] = token
                status = adapter.claim(worker, token)
                assert not (
                    status == CLAIM_GRANTED
                    and holder not in (None, worker)
                ), f"double grant: {worker} got the cell while {holder} held it"
                if completed:
                    assert status in (CLAIM_RESOLVED, CLAIM_CACHED)
                elif final:
                    assert status == CLAIM_FAILED_FINAL
                if status == CLAIM_GRANTED:
                    holder = worker
                    adapter.begin(worker, token)
                else:
                    # Mirrors the worker loop's finally: release after
                    # any non-granted pass (owner-checked, so releasing
                    # a lease we re-acquired as BUSY-to-self is safe).
                    adapter.release(worker)
                    if holder == worker:
                        holder = None
            elif op == "release":
                adapter.release(worker)
                if holder == worker:
                    holder = None
            elif op == "submit":
                if holder != worker or completed:
                    continue  # the worker loop never submits unclaimed work
                adapter.submit(worker, tokens[worker])
                adapter.release(worker)
                completed, holder = True, None
            elif op == "fail":
                if holder != worker or completed or final:
                    continue
                record = adapter.fail(worker, tokens[worker])
                adapter.release(worker)
                final, holder = bool(record["final"]), None
        # No lost cells: once every lease has expired, a fresh worker
        # finds the cell either resolved, failed-final, or claimable.
        adapter.expire()
        status = adapter.claim("w9", "w9-final")
        if completed:
            assert status in (CLAIM_RESOLVED, CLAIM_CACHED)
        elif final:
            assert status == CLAIM_FAILED_FINAL
        else:
            assert status == CLAIM_GRANTED, f"cell stranded: {status}"
    finally:
        adapter.close()


class TestLeaseProtocolProperty:
    @given(ops=OPS)
    @settings(max_examples=25, deadline=None)
    def test_net_transport_single_winner_no_lost_cells(self, ops):
        _drive_lease_protocol(NetLeaseAdapter(), ops)

    @given(ops=OPS)
    @settings(max_examples=25, deadline=None)
    def test_fs_transport_single_winner_no_lost_cells(self, ops):
        _drive_lease_protocol(FsLeaseAdapter(), ops)


# -- end-to-end worker over live TCP ---------------------------------------------------


class TestNetWorkerEndToEnd:
    def test_worker_drains_campaign_over_tcp(self, tmp_path):
        cells = tiny_grid().expand()
        server, host, port, stop, thread = live_server(tmp_path / "srv")
        try:
            coord = NetTransport((host, port), worker_id="coordinator",
                                 spool_dir=tmp_path / "cs")
            coord.publish([c.to_dict() for c in cells], grid_id="t",
                          max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            transport = NetTransport((host, port), worker_id="w0",
                                     spool_dir=tmp_path / "spool")
            summary = run_worker(transport=transport, worker_id="w0",
                                 poll_s=0.05)
            assert summary.stop_reason == "done"
            assert summary.executed == len(cells)
            metrics = coord.fetch([c.cell_id for c in cells])
            assert all(m and "makespan_ms" in m for m in metrics.values())
            # Worker attribution survives the wire.
            assert all(m["worker"] == "w0" for m in metrics.values())
            coord.close()
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_status_snapshot_over_tcp(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        server, host, port, stop, thread = live_server(tmp_path / "srv")
        try:
            coord = NetTransport((host, port), worker_id="status",
                                 spool_dir=tmp_path / "cs")
            coord.publish([c.to_dict() for c in cells], grid_id="t",
                          max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            snap = coord.status_snapshot()
            assert snap["transport"] == "net"
            assert snap["cells"] == 1
            assert snap["clock_skew"] is False
            assert "WARNING" not in render_status(snap)
            coord.close()
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_endpoint_file_lifecycle(self, tmp_path):
        from repro.dse.distrib.net import load_endpoint

        srv = tmp_path / "srv"
        server, host, port, stop, thread = live_server(srv)
        try:
            doc = load_endpoint(srv)
            assert doc is not None and doc["port"] == port
            assert doc["proto"] == PROTOCOL_VERSION
        finally:
            stop.set()
            thread.join(timeout=5)
        assert load_endpoint(srv) is None  # clean exit removes it

    def test_rid_mismatch_replies_are_discarded(self, tmp_path):
        """A duplicated/stale reply must not poison the next call."""
        server, host, port, stop, thread = live_server(tmp_path / "srv")
        try:
            transport = NetTransport((host, port), worker_id="w0",
                                     spool_dir=tmp_path / "spool")
            first = transport.ping()
            # Forge a stale frame into the transport's receive path by
            # sending a raw duplicate request with the *old* rid, whose
            # reply will sit unread in the buffer ahead of the next call.
            raw = transport._ensure_connected()
            send_frame(raw, {"op": "ping", "rid": first["rid"],
                             "worker": "w0"})
            time.sleep(0.2)  # let the stale reply land in the buffer
            second = transport.ping()
            assert second["rid"] != first["rid"]
            assert second["ok"]
            transport.close()
        finally:
            stop.set()
            thread.join(timeout=5)


def test_parse_endpoint_forms():
    from repro.dse.distrib.net import parse_endpoint

    assert parse_endpoint("example.com:9100") == ("example.com", 9100)
    assert parse_endpoint(":9100") == ("127.0.0.1", 9100)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint("host:notaport")


def test_spawned_server_announces_json_endpoint(tmp_path):
    proc, host, port = spawn_server(tmp_path / "srv")
    try:
        transport = NetTransport((host, port), worker_id="probe",
                                 spool_dir=tmp_path / "spool")
        reply = transport.ping()
        assert reply["proto"] == PROTOCOL_VERSION
        assert reply["pid"] == proc.pid
        transport.close()
        doc = json.loads((tmp_path / "srv" / "distrib" / "server.json")
                         .read_text())
        assert doc["port"] == port
    finally:
        proc.terminate()
        proc.wait(timeout=10)


# -- app order through the manifest and the wire ---------------------------------------


class TestAppOrderSurvivesTransports:
    """The order of a validation workload's ``apps`` is execution-
    significant and part of the cell id.  ``manifest.json`` and the wire
    frames used to be written with sorted keys, so a grid whose apps are
    not in alphabetical order came back as different cells and the fs/net
    workers resolved other cells than ``run_campaign``."""

    GRID = SweepGrid(
        configs=("2C+1F",), policies=("frfs", "eft"),
        workloads=(validation_sweep({"wifi_tx": 1, "range_detection": 1}),),
    )

    @staticmethod
    def rows(cells, metrics):
        return norm([
            CellResult(c, "ok" if metrics.get(c.cell_id) else "error",
                       metrics.get(c.cell_id)).row()
            for c in cells
        ])

    def test_fs_and_net_workers_resolve_run_campaigns_cells(self, tmp_path):
        cells = self.GRID.expand()
        ids = [c.cell_id for c in cells]
        single = run_campaign(self.GRID, out_dir=tmp_path / "single")
        assert single.ok and [r["cell_id"] for r in single.rows()] == ids
        expected = norm(single.rows())

        write_manifest(tmp_path / "fs", cells, grid_id="t", max_attempts=1,
                       timeout_s=None, lease_ttl_s=10.0)
        manifest = load_manifest(tmp_path / "fs")
        assert list(manifest_cells(manifest)) == ids
        summary = run_worker(tmp_path / "fs", worker_id="w1", poll_s=0.05)
        assert summary.stop_reason == "done" and summary.executed == len(ids)
        cache = ResultCache(tmp_path / "fs" / "cache")
        assert self.rows(cells, {cid: cache.get(cid) for cid in ids}) == expected

        server, host, port, stop, thread = live_server(tmp_path / "srv")
        try:
            coord = NetTransport((host, port), worker_id="coordinator",
                                 spool_dir=tmp_path / "cs")
            coord.publish([c.to_dict() for c in cells], grid_id="t",
                          max_attempts=1, timeout_s=None, lease_ttl_s=10.0,
                          resume=False)
            transport = NetTransport((host, port), worker_id="w1",
                                     spool_dir=tmp_path / "spool")
            summary = run_worker(transport=transport, poll_s=0.05)
            assert summary.stop_reason == "done"
            assert summary.executed == len(ids)
            assert self.rows(cells, coord.fetch(ids)) == expected
            coord.close()
        finally:
            stop.set()
            thread.join(timeout=5)

