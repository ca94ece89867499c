"""Worker-local result spool for network partitions.

When a worker finishes a cell but cannot reach the server, throwing the
result away would waste the (possibly expensive) emulation it just ran.
Instead the result is persisted here — one JSON file per submission,
named by its idempotency token — and re-submitted on reconnect.  Because
submission is token-idempotent on the server, a spooled result that was
*actually* accepted before the ACK was lost simply dedupes on flush.

The spool lives under the worker's own scratch directory (default:
alongside nothing shared), so it works precisely when no shared mount
exists — which is the only situation the network transport exists for.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.common.atomic import atomic_write_json


class ResultSpool:
    """A directory of pending result submissions, one file per token."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, token: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in token)
        return self.root / f"{safe}.json"

    def add(
        self,
        *,
        cell_id: str,
        label: str,
        metrics: dict[str, Any],
        attempt: int,
        wall_time_s: float,
        token: str,
    ) -> Path:
        """Persist one submission durably (atomic rename)."""
        path = self._path(token)
        doc = {
            "cell_id": cell_id,
            "label": label,
            "metrics": metrics,
            "attempt": attempt,
            "wall_time_s": wall_time_s,
            "token": token,
        }
        atomic_write_json(path, doc, sort_keys=True)
        return path

    def entries(self) -> list[dict[str, Any]]:
        """All pending submissions, oldest first (stable across restarts)."""
        out: list[tuple[float, dict[str, Any]]] = []
        for path in self.root.glob("*.json"):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue  # torn write from a crash mid-spool; unusable
            if isinstance(doc, dict) and doc.get("token"):
                try:
                    mtime = path.stat().st_mtime
                except OSError:
                    mtime = 0.0
                out.append((mtime, doc))
        out.sort(key=lambda pair: pair[0])
        return [doc for _mtime, doc in out]

    def remove(self, token: str) -> None:
        try:
            self._path(token).unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
