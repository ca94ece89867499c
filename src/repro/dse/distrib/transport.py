"""The transport abstraction between sweep workers and campaign state.

A *transport* is everything a worker needs from the campaign's shared
state — manifest, cell claims, result submission, failure records,
heartbeats, journal events — expressed as one interface with two
implementations:

* :class:`FsTransport` (here) — the PR 5 directory protocol, refactored
  behind the interface.  Every method maps onto the lease / queue /
  cache / journal-shard calls the pre-refactor worker loop made, in the
  same order, so filesystem campaigns stay bit-identical: same cell
  IDs, same journal events and fields, same on-disk layout readable by
  old readers.
* :class:`~repro.dse.distrib.net.client.NetTransport` — the TCP client
  for fleets without a shared mount; same calls become framed requests
  to ``dssoc-emulate sweep-server`` with retry/backoff and idempotency
  tokens.

The worker loop (:func:`repro.dse.distrib.worker.run_worker`) is written
purely against this interface and cannot tell the difference; the chaos
equivalence gate in ``tests/test_chaos_net.py`` pins that both
implementations fold to identical campaign results.

The *coordinator's* side of a campaign — ``publish``, ``cache_pass``,
``resolved_snapshot``, ``fetch``, ``event``, ``request_stop``,
``status_snapshot`` — is :class:`repro.dse.distrib.store.CampaignStore`
for a directory and the same calls on ``NetTransport`` for a server; the
directory's store folds the workers' shards with :class:`ShardMerger`.
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
from repro.dse.distrib import queue as layout
from repro.dse.distrib.leases import LeaseDir
from repro.dse.distrib.queue import DistribError
from repro.dse.journal import Journal

#: Claim outcomes (the strings cross the wire in net mode).
CLAIM_GRANTED = "granted"        #: lease taken; caller must run the cell
CLAIM_CACHED = "cached"          #: resolved via cache hit under our claim
CLAIM_RESOLVED = "resolved"      #: already completed elsewhere; no credit
CLAIM_FAILED_FINAL = "failed_final"  #: attempt budget exhausted
CLAIM_BUSY = "busy"              #: leased by a live peer


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
    double-counted results" hold end to end.  ``journal`` keeps the
    canonical state (its ``state``), folding what this appends.
    """

    def __init__(self, out_dir: str | Path, journal: Journal) -> None:
        self.out_dir = out_dir
        self.journal = journal
        self.path = layout.merge_state_path(out_dir)
        doc = layout.read_record(self.path) or {}
        self.offsets = {str(k): int(v) for k, v in doc.items()}

    def merge(self) -> int:
        """Fold all new shard events into the canonical journal."""
        fresh: list[tuple[float, int, str, dict[str, Any]]] = []
        advanced = False
        for shard in layout.shard_paths(self.out_dir):
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
        completed = self.journal.state.completed
        resolved: set[str] = set()  # this batch's, not folded until appended
        kept: list[tuple[str, dict[str, Any]]] = []
        for _ts, _seq, name, event in sorted(fresh, key=lambda t: t[:3]):
            kind = event["event"]
            cell_id = event.get("cell_id")
            if cell_id and kind in (
                journal_mod.EVENT_CELL_FINISH,
                journal_mod.EVENT_CELL_CACHED,
            ):
                if cell_id in completed or cell_id in resolved:
                    continue  # duplicate resolution (lease re-issue race)
                resolved.add(cell_id)
            fields = {
                k: v for k, v in event.items() if k not in _MERGE_DROP
            }
            fields.setdefault("worker", name)
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

    This is a *rehousing*, not a redesign: the bodies below are the call
    sequences the PR 5 worker loop made inline, so the on-disk protocol
    (lease files, journal shards, failure records, heartbeat files,
    cache entries) is unchanged byte for byte.  One lease per cell — the
    claim in ``distrib/leases/`` — is all the mutual exclusion there is.

    The worker role only: the directory's coordinator side is
    :class:`repro.dse.distrib.store.CampaignStore`.
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
        # opened by wait_ready: the cell leases, the result cache and this
        # worker's journal shard
        self.manifest: dict[str, Any] | None = None
        self.leases: LeaseDir | None = None
        self.cache: ResultCache | None = None
        self.journal: Journal | None = None

    # -- attach --------------------------------------------------------------------

    def wait_ready(self, *, timeout_s: float, poll_s: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                manifest = layout.load_manifest(self.out_dir)
                break
            except DistribError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(min(poll_s, 0.2))
        self.manifest = manifest
        self.leases = LeaseDir(
            layout.leases_dir(self.out_dir), owner=self.worker_id,
            ttl_s=layout.lease_ttl_s(manifest, self._ttl_override),
        )
        self.cache = ResultCache(layout.cache_dir(self.out_dir))
        self.journal = Journal(
            layout.shard_path(self.out_dir, self.worker_id), resume=True
        )
        return manifest

    def initial_resolved(self) -> set[str]:
        return set(
            journal_mod.replay_indexed(
                layout.journal_path(self.out_dir), write=False
            ).completed
        )

    # -- queue ---------------------------------------------------------------------

    def stop_requested(self) -> bool:
        return layout.stop_requested(self.out_dir)

    def claim(self, cell_id: str, label: str, token: str) -> ClaimReply:
        record = layout.failure(self.out_dir, cell_id)
        if record and record.get("final"):
            return ClaimReply(CLAIM_FAILED_FINAL)
        # held by a live peer? (a stale lease reads as claimable)
        info = self.leases.info(cell_id)
        if info and info.owner != self.worker_id and not self.leases.is_stale(info):
            return ClaimReply(CLAIM_BUSY)
        if not self.leases.acquire(cell_id):
            return ClaimReply(CLAIM_BUSY)
        # -- under this cell's lease (released by the caller's finally) ----
        record = layout.failure(self.out_dir, cell_id)
        if record and record.get("final"):
            return ClaimReply(CLAIM_FAILED_FINAL)
        hit = self.cache.get(cell_id)
        if hit is not None:
            # Resolved elsewhere (a peer, or an earlier campaign) since
            # our last look: claim it as a cache hit exactly once — we
            # hold the lease.
            self.journal.cells_cached(
                [(cell_id, label, hit)], worker=self.worker_id
            )
            return ClaimReply(CLAIM_CACHED)
        attempt = int(record.get("attempts", 0) if record else 0) + 1
        return ClaimReply(CLAIM_GRANTED, attempt=attempt)

    def release(self, cell_id: str) -> None:
        self.leases.release(cell_id)

    def renew(self, cell_id: str) -> None:
        self.leases.renew(cell_id)

    def heartbeat(self, **status: Any) -> None:
        try:
            layout.write_worker_status(self.out_dir, self.worker_id, **status)
        except OSError:
            pass  # a transiently unwritable status file is not fatal

    # -- resolution ----------------------------------------------------------------

    def begin(self, cell_id: str, label: str, attempt: int) -> None:
        self.journal.cell_start(cell_id, label, attempt, worker=self.worker_id)

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
        self.cache.put_if_absent(cell_id, metrics)
        layout.clear_failure(self.out_dir, cell_id)
        self.journal.cell_finish(
            cell_id, label, metrics, attempts=attempt,
            worker=self.worker_id, wall_time_s=round(wall_time_s, 6),
        )

    def fail(self, cell_id: str, label: str, error: str, token: str) -> dict[str, Any]:
        record = layout.record_failure(
            self.out_dir, cell_id, error,
            max_attempts=layout.max_attempts(self.manifest),
            worker=self.worker_id,
        )
        self.journal.cell_error(
            cell_id, label, error, record["attempts"], worker=self.worker_id
        )
        return record

    def interrupted(self, cell_id: str, label: str) -> None:
        self.journal.cell_interrupted(cell_id, label, worker=self.worker_id)

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        if self.journal is not None:
            try:
                self.journal.close()
            except OSError:
                pass
            self.journal = None
