"""Content-addressed on-disk result store for campaign cells.

Each completed cell's metrics are stored as ``<cache_dir>/<cell_id>.json``
where the cell ID is a content hash of the cell's parameters
(:attr:`repro.dse.grid.SweepCell.cell_id`).  Re-running any campaign —
the same one, a superset grid, or a different campaign that happens to
share cells — therefore skips every cell whose result already exists.

An entry is one line of sorted-key JSON, ``{"cell_id", "metrics",
"version"}``; entries written indented by earlier builds parse to the
same document and stay valid hits.  Writes are atomic
(:func:`repro.common.atomic.atomic_write_json`) so a campaign killed
mid-write can never leave a truncated entry behind; a corrupt or
unreadable entry is treated as a miss.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.common.atomic import atomic_write_json
from repro.common.retry import FS_RETRY

#: Bumped whenever the metrics payload schema changes incompatibly;
#: entries written under another version read as misses.
CACHE_VERSION = 1


class ResultCache:
    """Cell-ID keyed JSON store under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Lookups build entry paths as plain strings off this prefix: a
        # warm campaign pass reads every cell, and a ``Path`` per read was
        # ~8 % of the pass.
        self._prefix = os.path.join(self.root, "")

    def _path(self, cell_id: str) -> str:
        return f"{self._prefix}{cell_id}.json"

    def path_for(self, cell_id: str) -> Path:
        return self.root / f"{cell_id}.json"

    def get(self, cell_id: str) -> dict[str, Any] | None:
        """The cached metrics payload, or ``None`` on miss/corruption
        (an entry that is not UTF-8 included)."""
        try:
            with open(self._path(cell_id), "rb") as fh:
                entry = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
            return None
        payload = entry.get("metrics")
        return payload if isinstance(payload, dict) else None

    def put(self, cell_id: str, metrics: dict[str, Any]) -> Path:
        """Atomically persist a cell's metrics; returns the entry path.

        Concurrent writers on a shared cache directory (multiple sweep
        workers, or two campaigns sharing cells) never collide mid-write;
        last rename wins, and both wrote the same deterministic payload
        anyway.

        On a shared (typically NFS) mount a write can fail with
        ``EINTR``/``ESTALE``/``EAGAIN`` without anything being wrong with
        the result; dropping a computed cell over one such hiccup would
        force a whole re-execution.  The atomic temp-then-rename write is
        safely repeatable, so it runs under the shared bounded-backoff
        policy (the same one the network transport uses for its calls).
        """
        path = self.path_for(cell_id)
        entry = {"version": CACHE_VERSION, "cell_id": cell_id, "metrics": metrics}
        FS_RETRY.call(lambda: atomic_write_json(path, entry, sort_keys=True))
        return path

    def put_if_absent(self, cell_id: str, metrics: dict[str, Any]) -> bool:
        """Store unless a valid entry already exists; True when we wrote.

        The write for a cell several writers may race (a re-issued lease,
        a retried submit): the first entry stays.  Losing the race is not
        an error — cell results are deterministic, so the existing entry
        holds the same numbers.
        """
        if self.get(cell_id) is not None:
            return False
        self.put(cell_id, metrics)
        return True

    def discard(self, cell_id: str) -> bool:
        """Remove one entry; returns whether it existed."""
        try:
            os.unlink(self._path(cell_id))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            removed += 1
        return removed

    def cell_ids(self) -> list[str]:
        """Cell IDs of every entry on disk (valid or not)."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    def tmp_files(self) -> list[Path]:
        """Leftover temp files (abandoned by crashed/killed writers)."""
        return sorted(self.root.glob("*.tmp"))

    def __contains__(self, cell_id: str) -> bool:
        return self.get(cell_id) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
