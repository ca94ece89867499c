"""Shared-filesystem variant of the campaign result cache.

:class:`SharedResultCache` keeps the PR 1 content-hash store's schema
(same entry keys and version; either class reads the other's entries)
and layers on what concurrent campaigns on a shared mount need:

* **execution locks** — an owner-checked lease per cell ID under
  ``<cache>/locks/``.  A worker takes the lock before computing a cell,
  so two *different campaigns* that happen to share cells (same content
  hash) do not compute the same cell twice: the second campaign's worker
  sees the lock, moves on to other work, and picks the result up as a
  cache hit once the first finishes.  Locks are leases, not mutexes —
  a crashed holder's lock expires and the cell becomes computable again.
* **hit/miss/dedupe accounting** — feeds the live status view's cache
  hit rate.
* **put_if_absent** — the natural write operation when several writers
  may race one cell: the first rename wins and later writers are counted
  as dedupes (their payloads are identical anyway — cell results are
  deterministic functions of the cell parameters).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.common.retry import FS_RETRY
from repro.dse.cache import ResultCache
from repro.dse.distrib.leases import LeaseDir

#: Default execution-lock lease: generous, because a lock only matters
#: while another campaign is mid-computation of the same cell.
DEFAULT_LOCK_TTL_S = 600.0


class SharedResultCache(ResultCache):
    """A :class:`ResultCache` safe for many concurrent writer processes."""

    def __init__(
        self,
        root: str | Path,
        *,
        owner: str,
        lock_ttl_s: float = DEFAULT_LOCK_TTL_S,
    ) -> None:
        super().__init__(root)
        self.owner = owner
        self.locks = LeaseDir(
            self.root / "locks", owner=owner, ttl_s=lock_ttl_s
        )
        self.hits = 0
        self.misses = 0
        self.dedupes = 0

    # -- instrumented reads ----------------------------------------------------------

    def get(self, cell_id: str) -> dict[str, Any] | None:
        payload = super().get(cell_id)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def peek(self, cell_id: str) -> dict[str, Any] | None:
        """An uncounted read (status views, double-checks under a lock)."""
        return super().get(cell_id)

    # -- execution locks -------------------------------------------------------------

    def try_lock(self, cell_id: str) -> bool:
        """Claim the right to *compute* this cell (breaks stale locks)."""
        return self.locks.acquire(cell_id)

    def renew_lock(self, cell_id: str) -> bool:
        return self.locks.renew(cell_id)

    def unlock(self, cell_id: str) -> bool:
        return self.locks.release(cell_id)

    def locked_by_other(self, cell_id: str) -> bool:
        """Is someone else (alive, per the lease ttl) computing this cell?"""
        info = self.locks.info(cell_id)
        if info is None or info.owner == self.owner:
            return False
        return not self.locks.is_stale(info)

    # -- writes ----------------------------------------------------------------------

    def put(self, cell_id: str, metrics: dict[str, Any]) -> Path:
        """Store with bounded retry on transient filesystem errors.

        On a shared (typically NFS) mount a write can fail with
        ``EINTR``/``ESTALE``/``EAGAIN`` without anything being wrong with
        the result; dropping a computed cell over one such hiccup would
        force a whole re-execution.  The atomic temp-then-rename write is
        safely repeatable, so it runs under the shared bounded-backoff
        policy (the same one the network transport uses for its calls).
        """
        return FS_RETRY.call(lambda: ResultCache.put(self, cell_id, metrics))

    def put_if_absent(self, cell_id: str, metrics: dict[str, Any]) -> bool:
        """Store unless a valid entry already exists; True when we wrote.

        Losing the race is not an error — cell results are deterministic,
        so the existing entry holds the same numbers; it is counted as a
        dedupe for the status view.
        """
        if self.peek(cell_id) is not None:
            self.dedupes += 1
            return False
        self.put(cell_id, metrics)
        return True

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "dedupes": self.dedupes,
        }
