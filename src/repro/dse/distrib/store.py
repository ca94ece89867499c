"""The campaign directory's durable state, behind one owner object.

A campaign directory holds a canonical journal (``journal.jsonl`` + its
index sidecar), a content-hash result cache (``cache/``) and, for a
fleet, the work queue under ``distrib/``.  :class:`CampaignStore` is the
one writer of that state machine — the completed set, the cache pass,
the fresh-campaign reset, the close-time index refresh — for whoever
coordinates the directory: :func:`repro.dse.runner.run_campaign` builds
one for a local or directory-fleet campaign (a server fleet's talks to
the server's through ``NetTransport``, which names the same calls),
:class:`~repro.dse.distrib.net.server.SweepServer` builds one at start
and keeps it across campaigns, and
:func:`~repro.dse.distrib.coordinator.merge_once` builds one to fold
shards offline.  Workers never build one: a directory worker writes its
own shard and the cache through
:class:`~repro.dse.distrib.transport.FsTransport`, and the store folds
the shards in.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib import queue as layout
from repro.dse.distrib.status import campaign_snapshot
from repro.dse.distrib.transport import ShardMerger
from repro.dse.grid import SweepCell
from repro.dse.journal import Journal, JournalState


class CampaignStore:
    """One process's ownership of a campaign directory.

    ``resume`` appends to the directory's journal after replaying it;
    otherwise the journal starts over.  ``owner`` names this process in
    the failure records a server writes.  ``state`` is the journal's
    replay kept current: the journal folds every line it writes into it
    (resolving calls, merged shard events), so it is also the index
    written at close.
    """

    def __init__(self, out_dir: str | Path, *, resume: bool, owner: str) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.owner = owner
        self.journal_path = layout.journal_path(self.out_dir)
        self.cache = ResultCache(layout.cache_dir(self.out_dir))
        #: the published manifest document (None for a local campaign)
        self.manifest: dict[str, Any] | None = None
        #: the campaign's distinct cells by id, in grid order: from the
        #: manifest, or set by a local campaign's driver, which has none
        self.cells: dict[str, SweepCell] = {}
        self.journal: Journal | None = None
        self._open_journal(resume)

    def _open_journal(self, resume: bool) -> None:
        if self.journal is not None:
            self.journal.close()
        if not resume:
            # The sidecar describes the journal about to be truncated; a
            # new one of the same head and length would pass its checks.
            journal_mod.index_path(self.journal_path).unlink(missing_ok=True)
        # Opened first: a resumed journal terminates a torn tail, so the
        # replay below folds exactly the lines the file holds from here on.
        self.journal = Journal(self.journal_path, resume=resume)
        # Indexed fast path: fold only the journal tail past the snapshot
        # in journal.jsonl.idx instead of re-reading the whole log on
        # every resume of a large campaign.
        self.state = self.journal.state = (
            journal_mod.replay_indexed(self.journal_path) if resume
            else JournalState()
        )
        # made on the first merge: it appends to this journal
        self._merger: ShardMerger | None = None

    def label(self, cell_id: str) -> str:
        cell = self.cells.get(cell_id)
        return cell.label if cell is not None else cell_id

    # -- campaign scope --------------------------------------------------------------

    def adopt(self, manifest: dict[str, Any]) -> None:
        """Take ``manifest`` (just written, or found on disk by a
        restarted server) as the campaign; hashes each cell once."""
        self.manifest = manifest
        self.cells = layout.manifest_cells(manifest)

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
        """Publish the work queue for a fleet.  A fresh campaign also
        resets the queue state (keeping the cache — the cache pass mines
        it) and starts the journal over, which matters to a store that
        outlives campaigns; one built fresh has an empty journal already."""
        layout.clear_stop(self.out_dir)
        if not resume:
            layout.reset(self.out_dir)
            self._open_journal(resume=False)
        self.adopt(layout.write_manifest(
            self.out_dir, [SweepCell.from_dict(d) for d in cells],
            grid_id=grid_id, max_attempts=max_attempts, timeout_s=timeout_s,
            lease_ttl_s=lease_ttl_s,
        ))
        return len(self.cells)

    def event(self, kind: str, **fields: Any) -> None:
        """Append one campaign-scope event to the canonical journal."""
        self.journal.append(kind, **fields)

    def cache_pass(self, *, force: bool) -> dict[str, dict[str, Any]]:
        """Resolve every cell already in the cache, journaling as a cache
        hit each one the journal has not resolved yet; under ``force``
        drop the entries instead so every cell is recomputed.  Returns
        the hits' metrics by cell id."""
        if force:
            for cell_id in self.cells:
                self.cache.discard(cell_id)
            return {}
        hits: dict[str, dict[str, Any]] = {}
        for cell_id in self.cells:
            hit = self.cache.get(cell_id)
            if hit is not None:
                hits[cell_id] = hit
        # One write for the whole pass: a hit's durable result is its
        # cache entry, so a kill before the flush only means the next run
        # hits (and journals) these cells again.  ``sweep --status`` counts
        # the lines attributed to "coordinator" into the cache hit rate.
        self._cached(
            {c: hit for c, hit in hits.items() if c not in self.state.completed},
            "coordinator",
        )
        return hits

    def merge(self) -> int:
        """Fold the workers' new shard events into the canonical journal."""
        if self._merger is None:
            self._merger = ShardMerger(self.out_dir, self.journal)
        return self._merger.merge()

    def resolved_snapshot(self) -> tuple[set[str], dict[str, dict[str, Any]]]:
        """Merge the workers' shards, then report ``(completed, failed)``."""
        self.merge()
        return self.state.completed, layout.failed_summary(self.out_dir)

    def fetch(self, cell_ids: list[str]) -> dict[str, Any]:
        return {cell_id: self.cache.get(cell_id) for cell_id in cell_ids}

    def status_snapshot(self) -> dict[str, Any]:
        return campaign_snapshot(self.out_dir)

    def request_stop(self, reason: str = "coordinator") -> None:
        layout.request_stop(self.out_dir, reason)

    def close(self) -> None:
        """Close the journal and write its index sidecar, so the next
        ``--resume`` (or ``--status``, or server) starts from this
        campaign's end instead of replaying.  Never raises."""
        try:
            if self.manifest is not None:
                self.merge()  # what the fleet wrote while draining
            self.journal.close()
            if self.journal.clean:
                journal_mod.write_index(self.journal_path, self.state)
            else:
                # a retried append may have doubled a line: read it back
                journal_mod.replay_indexed(self.journal_path)
        except (OSError, ValueError):
            pass  # ValueError: a late shard event met a journal closed before

    # -- cell scope ------------------------------------------------------------------

    def start(self, cell_id: str, attempt: int, worker: str | None = None) -> None:
        self.journal.cell_start(
            cell_id, self.label(cell_id), attempt, worker=worker
        )

    def finish(
        self,
        cell_id: str,
        metrics: dict[str, Any],
        *,
        attempts: int,
        worker: str | None,
        wall_time_s: float | None,
        token: str | None = None,
    ) -> bool:
        """Persist a computed cell — cache entry first, then one flushed
        journal line — exactly once.  False, and nothing journaled, when
        the cell is already resolved: a retried submit after a dropped
        ACK, a second worker finishing a re-issued cell, or a cell the
        resumed journal resolved whose cache entry had gone missing.  The
        first cache entry is kept either way."""
        self.cache.put_if_absent(cell_id, metrics)
        if cell_id in self.state.completed:
            return False
        self.journal.cell_finish(
            cell_id, self.label(cell_id), metrics, attempts=attempts,
            worker=worker, wall_time_s=wall_time_s, token=token,
        )
        return True

    def cached(self, cell_id: str, worker: str) -> bool:
        """Resolve the cell as ``worker``'s cache hit if its entry is on
        disk (a prior campaign's, or a spool flush that beat the claim)."""
        hit = self.cache.get(cell_id)
        if hit is None:
            return False
        self._cached({cell_id: hit}, worker)
        return True

    def _cached(self, hits: dict[str, dict[str, Any]], worker: str) -> None:
        self.journal.cells_cached(
            [(cell_id, self.label(cell_id), hit) for cell_id, hit in hits.items()],
            worker=worker,
        )

    def error(
        self, cell_id: str, error: str | None, attempts: int,
        worker: str | None = None,
    ) -> None:
        self.journal.cell_error(
            cell_id, self.label(cell_id), error, attempts, worker=worker
        )

    def interrupted(self, cell_id: str, worker: str | None = None) -> None:
        self.journal.cell_interrupted(cell_id, self.label(cell_id), worker=worker)
