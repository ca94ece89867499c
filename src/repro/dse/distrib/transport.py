"""The transport abstraction between sweep participants and campaign state.

A *transport* is everything a worker (or coordinator, or status reader)
needs from the campaign's shared state — manifest, cell claims, result
submission, failure records, heartbeats, journal events — expressed as
one interface with two implementations:

* :class:`FsTransport` (here) — the PR 5 directory protocol, refactored
  behind the interface.  Every method maps onto exactly the lease /
  queue / shared-cache / journal-shard calls the pre-refactor worker
  loop made, in the same order, so filesystem campaigns stay
  bit-identical: same cell IDs, same journal events and fields, same
  on-disk layout readable by old readers.
* :class:`~repro.dse.distrib.net.client.NetTransport` — the TCP client
  for fleets without a shared mount; same calls become framed requests
  to ``dssoc-emulate sweep-server`` with retry/backoff and idempotency
  tokens.

The worker loop (:func:`repro.dse.distrib.worker.run_worker`) is written
purely against this interface and cannot tell the difference; the chaos
equivalence gate in ``tests/test_chaos_net.py`` pins that both
implementations fold to identical campaign results.

Both implementations also carry the *coordinator's* side of the campaign
— ``publish``, ``cache_pass``, ``resolved_snapshot``, ``fetch``,
``event``, ``request_stop``, ``status_snapshot`` — which is everything
:func:`repro.dse.runner.run_campaign` and its fleet loop
(:func:`repro.dse.distrib.coordinator.run_fleet`) ask of a campaign's
state, so one driver serves the directory and the server.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Any

from repro.common.atomic import atomic_write_json
from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib.queue import (
    DEFAULT_LEASE_TTL_S,
    DistribError,
    WorkQueue,
    _read_json,
    load_manifest,
    write_manifest,
)
from repro.dse.distrib.shared_cache import SharedResultCache
from repro.dse.distrib.status import campaign_snapshot
from repro.dse.grid import SweepCell
from repro.dse.journal import Journal, JournalState

#: Claim outcomes (the strings cross the wire in net mode).
CLAIM_GRANTED = "granted"        #: lease taken; caller must run the cell
CLAIM_CACHED = "cached"          #: resolved via cache hit under our claim
CLAIM_RESOLVED = "resolved"      #: already completed elsewhere; no credit
CLAIM_FAILED_FINAL = "failed_final"  #: attempt budget exhausted
CLAIM_BUSY = "busy"              #: leased/locked by a live peer


class TransportError(DistribError):
    """A transport call failed after its whole retry budget.

    Raised only by the network transport (the directory protocol's
    failure mode is the filesystem's, which the queue layer already
    absorbs or retries).  Workers degrade gracefully on it: spool the
    in-flight result, keep trying to reconnect, give up cleanly when
    the reconnect budget is spent.
    """


@dataclass(frozen=True)
class ClaimReply:
    """Outcome of one claim attempt."""

    status: str
    attempt: int = 1

    @property
    def granted(self) -> bool:
        return self.status == CLAIM_GRANTED


def new_token(worker_id: str, seq: int) -> str:
    """An idempotency token: unique per logical operation, stable across
    its retries.  Embeds the worker for journal forensics."""
    return f"{worker_id}-{os.getpid()}-{seq}-{os.urandom(4).hex()}"


class WorkerTransport(ABC):
    """What one worker process needs from the campaign, transport-agnostic.

    Lifecycle: ``wait_ready`` → (``initial_resolved``, many passes of
    ``claim``/``begin``/``submit``/``fail``/``release`` with a heartbeat
    thread calling ``renew``/``heartbeat``) → ``close``.
    """

    worker_id: str

    # -- attach --------------------------------------------------------------------

    @abstractmethod
    def wait_ready(self, *, timeout_s: float, poll_s: float) -> dict[str, Any]:
        """Block until the campaign manifest exists; return it."""

    @abstractmethod
    def initial_resolved(self) -> set[str]:
        """Cells already completed when this worker attached."""

    # -- queue ---------------------------------------------------------------------

    @abstractmethod
    def stop_requested(self) -> bool:
        """Has the coordinator asked the fleet to drain?"""

    @abstractmethod
    def claim(self, cell_id: str, label: str, token: str) -> ClaimReply:
        """Try to take the cell for execution (see CLAIM_* outcomes)."""

    @abstractmethod
    def release(self, cell_id: str) -> None:
        """Give the cell's claim back (idempotent; safe when not held)."""

    @abstractmethod
    def renew(self, cell_id: str) -> None:
        """Heartbeat the held claim (called from the heartbeat thread)."""

    @abstractmethod
    def heartbeat(self, **status: Any) -> None:
        """Publish worker liveness/status (heartbeat thread)."""

    # -- resolution ----------------------------------------------------------------

    @abstractmethod
    def begin(self, cell_id: str, label: str, attempt: int) -> None:
        """Journal the start of an execution attempt."""

    @abstractmethod
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
        """Persist a computed result exactly once (token-idempotent)."""

    @abstractmethod
    def fail(self, cell_id: str, label: str, error: str, token: str) -> dict[str, Any]:
        """Charge one failed attempt; returns ``{"attempts": n, "final": bool}``."""

    @abstractmethod
    def interrupted(self, cell_id: str, label: str) -> None:
        """Journal an attempt cut short by a signal (cell stays incomplete)."""

    # -- idle-pass helpers ---------------------------------------------------------

    def poll_resolved(self) -> set[str] | None:
        """Freshly-completed cells learned out of band, or None.

        The directory protocol returns None — the filesystem worker
        discovers peer resolutions through failure records and cache
        hits exactly as before the refactor.  The network transport
        returns the server's completed set so idle workers converge
        without one claim round-trip per cell.
        """
        return None

    def flush_spool(self) -> int:
        """Re-submit locally-spooled results; returns how many flushed."""
        return 0

    def spooled(self) -> int:
        """Results persisted locally but not yet acknowledged."""
        return 0

    # -- teardown ------------------------------------------------------------------

    @abstractmethod
    def close(self) -> None:
        """Release transport resources (never raises)."""


#: Shard fields replaced by the canonical journal's own on merge.
_MERGE_DROP = ("event", "seq", "ts")


class ShardMerger:
    """Exactly-once folding of worker journal shards into the canonical log.

    Byte offsets of each shard's merged prefix live in
    ``distrib/merge_state.json`` (written atomically after every merge),
    so a coordinator killed between merges re-reads only unmerged
    suffixes.  Events that would double-resolve a cell — two finishes
    after a lease was re-issued to a second worker just as the first
    woke back up — are dropped here, which is what makes "no
    double-counted results" hold end to end.
    """

    def __init__(
        self, queue: WorkQueue, journal: Journal, state: JournalState
    ) -> None:
        self.queue = queue
        self.journal = journal
        self.state = state
        self.path = queue.root / "merge_state.json"
        doc = _read_json(self.path)
        self.offsets: dict[str, int] = (
            {str(k): int(v) for k, v in doc.items()}
            if isinstance(doc, dict)
            else {}
        )

    def merge(self) -> int:
        """Fold all new shard events into the canonical journal."""
        fresh: list[tuple[float, int, str, dict[str, Any]]] = []
        advanced = False
        for shard in self.queue.shard_paths():
            name = shard.stem
            offset = self.offsets.get(name, 0)
            events, consumed = journal_mod.read_events_from(shard, offset)
            if consumed != offset:
                self.offsets[name] = consumed
                advanced = True
            for event in events:
                fresh.append(
                    (float(event.get("ts", 0.0)), int(event.get("seq", 0)),
                     name, event)
                )
        kept: list[tuple[str, dict[str, Any]]] = []
        for _ts, _seq, name, event in sorted(fresh, key=lambda t: t[:3]):
            kind = event["event"]
            cell_id = event.get("cell_id")
            if cell_id and kind in (
                journal_mod.EVENT_CELL_FINISH,
                journal_mod.EVENT_CELL_CACHED,
            ):
                if cell_id in self.state.completed:
                    continue  # duplicate resolution (lease re-issue race)
            fields = {
                k: v for k, v in event.items() if k not in _MERGE_DROP
            }
            fields.setdefault("worker", name)
            self.state.fold({"event": kind, **fields})
            kept.append((kind, fields))
        # one write per run of same-kind events, in merge order; the
        # offsets below advance only once every run is flushed
        for kind, run in groupby(kept, key=lambda pair: pair[0]):
            self.journal.append_many(kind, [fields for _kind, fields in run])
        if advanced:
            atomic_write_json(self.path, self.offsets)
        return len(kept)


class FsTransport(WorkerTransport):
    """The shared-filesystem directory protocol behind the interface.

    This is a *rehousing*, not a redesign: the worker-side bodies below
    are the exact call sequences the PR 5 worker loop made inline, so
    the on-disk protocol (lease files, journal shards, failure records,
    heartbeat files, cache entries) is unchanged byte for byte.

    One instance plays one role.  A worker calls ``wait_ready`` and then
    the :class:`WorkerTransport` methods; a campaign's coordinator calls
    ``open_journal`` (and, for a fleet, ``publish``) and then the
    coordinator-side methods at the bottom of the class.
    """

    def __init__(
        self,
        out_dir: str | Path,
        *,
        worker_id: str,
        lease_ttl_s: float | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.out_dir = Path(out_dir)
        self._ttl_override = lease_ttl_s
        self.queue: WorkQueue | None = None
        # worker role: this worker's journal shard and the locking cache
        self.cache: SharedResultCache | None = None
        self.journal: Journal | None = None
        self.manifest: dict[str, Any] | None = None
        # coordinator role: the canonical journal, its folded state, the
        # plain result cache, the campaign's cells and the shard merger
        self.canonical: Journal | None = None
        self.state = JournalState()
        self.results: ResultCache | None = None
        self.cells: dict[str, SweepCell] = {}
        self.merger: ShardMerger | None = None

    # -- attach --------------------------------------------------------------------

    def wait_ready(self, *, timeout_s: float, poll_s: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                manifest = load_manifest(self.out_dir)
                break
            except DistribError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(min(poll_s, 0.2))
        ttl = float(
            self._ttl_override
            or manifest.get("lease_ttl_s")
            or DEFAULT_LEASE_TTL_S
        )
        timeout = manifest.get("timeout_s")
        self.manifest = manifest
        self.queue = WorkQueue(self.out_dir, owner=self.worker_id, lease_ttl_s=ttl)
        self.cache = SharedResultCache(
            self.out_dir / "cache",
            owner=self.worker_id,
            lock_ttl_s=max(ttl, float(timeout) if timeout else ttl),
        )
        self.journal = Journal(self.queue.shard_path(self.worker_id), resume=True)
        return manifest

    def initial_resolved(self) -> set[str]:
        return set(
            journal_mod.replay_indexed(
                self.out_dir / "journal.jsonl", write=False
            ).completed
        )

    # -- queue ---------------------------------------------------------------------

    def stop_requested(self) -> bool:
        assert self.queue is not None
        return self.queue.stop_requested()

    def claim(self, cell_id: str, label: str, token: str) -> ClaimReply:
        assert self.queue is not None and self.cache is not None
        assert self.journal is not None and self.manifest is not None
        queue, cache = self.queue, self.cache
        record = queue.failure(cell_id)
        if record and record.get("final"):
            return ClaimReply(CLAIM_FAILED_FINAL)
        if queue.claimed_elsewhere(cell_id):
            return ClaimReply(CLAIM_BUSY)
        if not queue.try_claim(cell_id):
            return ClaimReply(CLAIM_BUSY)
        # -- under this cell's lease (released by the caller's finally) ----
        record = queue.failure(cell_id)
        if record and record.get("final"):
            return ClaimReply(CLAIM_FAILED_FINAL)
        if cache.peek(cell_id) is not None:
            # Resolved elsewhere (a peer, or another campaign sharing
            # cells) since our last look: claim it as a cache hit exactly
            # once — we hold the lease.
            self.journal.append(
                journal_mod.EVENT_CELL_CACHED,
                cell_id=cell_id,
                label=label,
                worker=self.worker_id,
                attempts=0,
            )
            return ClaimReply(CLAIM_CACHED)
        if cache.locked_by_other(cell_id):
            # Another campaign is computing this very cell on the shared
            # cache; let it finish, come back later.
            return ClaimReply(CLAIM_BUSY)
        attempt = int(record.get("attempts", 0) if record else 0) + 1
        return ClaimReply(CLAIM_GRANTED, attempt=attempt)

    def release(self, cell_id: str) -> None:
        assert self.queue is not None and self.cache is not None
        self.cache.unlock(cell_id)
        self.queue.release_claim(cell_id)

    def renew(self, cell_id: str) -> None:
        assert self.queue is not None and self.cache is not None
        self.queue.renew_claim(cell_id)
        self.cache.renew_lock(cell_id)

    def heartbeat(self, **status: Any) -> None:
        assert self.queue is not None and self.cache is not None
        try:
            self.queue.write_worker_status(
                self.worker_id, cache=self.cache.stats(), **status
            )
        except OSError:
            pass  # a transiently unwritable status file is not fatal

    # -- resolution ----------------------------------------------------------------

    def begin(self, cell_id: str, label: str, attempt: int) -> None:
        assert self.journal is not None and self.cache is not None
        self.journal.append(
            journal_mod.EVENT_CELL_START,
            cell_id=cell_id,
            label=label,
            attempt=attempt,
            worker=self.worker_id,
        )
        self.cache.try_lock(cell_id)

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
        assert self.queue is not None and self.cache is not None
        assert self.journal is not None
        self.cache.put_if_absent(cell_id, metrics)
        self.queue.clear_failure(cell_id)
        self.journal.append(
            journal_mod.EVENT_CELL_FINISH,
            cell_id=cell_id,
            label=label,
            makespan_ms=metrics.get("makespan_ms"),
            attempts=attempt,
            worker=self.worker_id,
            wall_time_s=round(wall_time_s, 6),
        )

    def fail(self, cell_id: str, label: str, error: str, token: str) -> dict[str, Any]:
        assert self.queue is not None and self.journal is not None
        assert self.manifest is not None
        max_attempts = max(1, int(self.manifest.get("max_attempts", 1)))
        record = self.queue.record_failure(
            cell_id, error, max_attempts=max_attempts
        )
        self.journal.append(
            journal_mod.EVENT_CELL_ERROR,
            cell_id=cell_id,
            label=label,
            error=error,
            attempts=record["attempts"],
            worker=self.worker_id,
        )
        return record

    def interrupted(self, cell_id: str, label: str) -> None:
        assert self.journal is not None
        self.journal.append(
            journal_mod.EVENT_CELL_INTERRUPTED,
            cell_id=cell_id,
            label=label,
            worker=self.worker_id,
        )

    # -- coordinator side ----------------------------------------------------------
    #
    # The directory's answers to the calls NetTransport sends the server.
    # ``open_journal`` has no wire twin: the server opens its own journal,
    # while a directory's coordinator is the process that owns it.

    def open_journal(
        self, cells: dict[str, SweepCell], *, resume: bool
    ) -> JournalState:
        """Become the coordinator of ``cells`` (by cell id) in this directory.

        Opens the canonical journal — appending when resuming, else
        starting it over — and the result cache, and returns the replayed
        prior state (empty unless resuming).
        """
        path = self.out_dir / "journal.jsonl"
        if resume:
            # Indexed fast path: fold only the journal tail past the
            # snapshot in journal.jsonl.idx instead of re-reading the
            # whole log on every resume of a large campaign.
            self.state = journal_mod.replay_indexed(path)
        else:
            # The sidecar describes the journal about to be truncated; a
            # new one of the same head and length would pass its checks.
            journal_mod.index_path(path).unlink(missing_ok=True)
        self.canonical = Journal(path, resume=resume)
        self.results = ResultCache(self.out_dir / "cache")
        self.cells = cells
        return self.state

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
        """Publish the work queue for a fleet (after :meth:`open_journal`);
        a fresh campaign also resets the queue state."""
        queue = WorkQueue(
            self.out_dir, owner=self.worker_id, lease_ttl_s=lease_ttl_s
        )
        queue.clear_stop()
        if not resume:
            queue.reset()
        write_manifest(
            self.out_dir, [SweepCell.from_dict(d) for d in cells],
            grid_id=grid_id, max_attempts=max_attempts, timeout_s=timeout_s,
            lease_ttl_s=lease_ttl_s,
        )
        self.queue = queue
        self.merger = ShardMerger(queue, self.canonical, self.state)
        return len(cells)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one campaign-scope event to the canonical journal."""
        assert self.canonical is not None
        self.canonical.append(kind, **fields)

    def cache_pass(self, *, force: bool) -> dict[str, dict[str, Any]]:
        """Resolve every cell already in the cache, journaling each as a
        cache hit; under ``force`` drop the entries instead so every cell
        is recomputed.  Returns the hits' metrics by cell id."""
        assert self.canonical is not None and self.results is not None
        if force:
            for cell_id in self.cells:
                self.results.discard(cell_id)
            return {}
        hits: dict[str, dict[str, Any]] = {}
        records: list[dict[str, Any]] = []
        for cell_id, cell in self.cells.items():
            hit = self.results.get(cell_id)
            if hit is None:
                continue
            hits[cell_id] = hit
            records.append({
                "cell_id": cell_id,
                "label": cell.label,
                "makespan_ms": hit.get("makespan_ms"),
                "attempts": 0,
                "worker": "coordinator",
                "wall_time_s": hit.get("wall_time_s"),
            })
        # One write for the whole pass: a hit's durable result is its
        # cache entry, so a kill before the flush only means the next run
        # hits (and journals) these cells again.
        self.canonical.append_many(journal_mod.EVENT_CELL_CACHED, records)
        for cell_id in hits:
            self.state.fold(
                {"event": journal_mod.EVENT_CELL_CACHED, "cell_id": cell_id}
            )
        return hits

    def resolved_snapshot(self) -> tuple[set[str], dict[str, dict[str, Any]]]:
        """Merge the workers' shards, then report ``(completed, failed)``."""
        assert self.queue is not None and self.merger is not None
        self.merger.merge()
        return self.state.completed, self.queue.failed_summary()

    def fetch(self, cell_ids: list[str]) -> dict[str, Any]:
        assert self.results is not None
        return {cell_id: self.results.get(cell_id) for cell_id in cell_ids}

    def status_snapshot(self) -> dict[str, Any]:
        return campaign_snapshot(self.out_dir)

    def request_stop(self, reason: str = "coordinator") -> None:
        assert self.queue is not None
        self.queue.request_stop(reason)

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        if self.journal is not None:
            try:
                self.journal.close()
            except OSError:
                pass
            self.journal = None
        if self.canonical is not None:
            try:
                if self.merger is not None:
                    self.merger.merge()  # what the fleet wrote while draining
                self.canonical.close()
                # Refresh the index sidecar so the next --resume (or
                # --status) starts from this campaign's end.
                journal_mod.replay_indexed(self.canonical.path)
            except OSError:
                pass
            self.canonical = None
