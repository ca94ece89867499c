"""The campaign directory's layout: every name in it is spelled here.

A campaign directory is a sweep's whole durable state.  Coordinator,
workers, server, ``sweep --status`` and ``sweep --gc`` share nothing
else (same host, or many hosts over a shared filesystem) and find every
file in it through this module::

    journal.jsonl[.idx]      canonical journal + replay index sidecar
    cache/                   content-hash result cache
    results.json             the coordinator's rows at campaign end
    coordinator-spool/       server mode: the coordinator's result spool
    spool-<w>/               server mode: a spawned worker's result spool
    distrib/                 a fleet's queue (absent for a local campaign)
        manifest.json        the whole campaign: every cell, in grid order
        leases/              one lease file per in-flight cell (leases.py)
        journals/<w>.jsonl   per-worker append-only journal shards
        workers/<w>.json     per-worker heartbeat + status snapshots
        failed/<id>.json     per-cell failure records (attempts, last error)
        STOP                 coordinator's drain request to all workers
        merge_state.json     byte offsets of each shard's merged prefix
        server.json          a running sweep-server's endpoint

A cell is *resolved* when its result is in the shared cache (completed)
or its failure record says the attempt budget is exhausted (failed).
Failure records are only ever written by the cell's current lease
holder, so read-modify-write on them is race-free by construction.
Reads create nothing, and a write creates only the directory it writes
into, so ``sweep --status`` leaves a campaign as it found it.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any

from repro.common.atomic import atomic_write_json
from repro.common.errors import ReproError
from repro.dse.grid import SweepCell

MANIFEST_VERSION = 1

#: Default lease ttl: a worker that misses heartbeats for this long is
#: presumed dead and its cell is re-issued.
DEFAULT_LEASE_TTL_S = 30.0

#: The queue's per-item directories under ``distrib/``.
_LEASES, _SHARDS, _WORKERS, _FAILED = "leases", "journals", "workers", "failed"

#: Matches every directory :func:`spool_dir` names.
SPOOL_GLOB = "*spool*"


class DistribError(ReproError):
    """The distributed campaign directory is missing or inconsistent."""


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


# -- paths -----------------------------------------------------------------------


def journal_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "journal.jsonl"


def cache_dir(out_dir: str | Path) -> Path:
    return Path(out_dir) / "cache"


def results_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "results.json"


def spool_dir(out_dir: str | Path, owner: str) -> Path:
    """Where ``owner`` (a worker id, or ``"coordinator"``) spools results
    it could not hand to a server."""
    name = "coordinator-spool" if owner == "coordinator" else f"spool-{owner}"
    return Path(out_dir) / name


def distrib_dir(out_dir: str | Path, *parts: str) -> Path:
    return Path(out_dir, "distrib", *parts)


def manifest_path(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir, "manifest.json")


def leases_dir(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir, _LEASES)


def shard_path(out_dir: str | Path, worker_id: str) -> Path:
    return distrib_dir(out_dir, _SHARDS, f"{worker_id}.jsonl")


def shard_paths(out_dir: str | Path) -> list[Path]:
    return sorted(distrib_dir(out_dir, _SHARDS).glob("*.jsonl"))


def worker_paths(out_dir: str | Path) -> list[Path]:
    return list(distrib_dir(out_dir, _WORKERS).glob("*.json"))


def stop_path(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir, "STOP")


def merge_state_path(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir, "merge_state.json")


def endpoint_path(out_dir: str | Path) -> Path:
    return distrib_dir(out_dir, "server.json")


# -- records ---------------------------------------------------------------------


def read_record(path: Path) -> dict[str, Any] | None:
    """A one-document JSON file, or None when missing, torn or not an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def write_record(path: Path, doc: dict[str, Any]) -> None:
    """Atomically replace ``path`` with ``doc``, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, doc)


def _records(directory: Path) -> dict[str, dict[str, Any]]:
    """Every readable record in ``directory``, by file stem."""
    out: dict[str, dict[str, Any]] = {}
    for path in directory.glob("*.json"):
        record = read_record(path)
        if record is not None:
            out[path.stem] = record
    return out


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# -- manifest --------------------------------------------------------------------


def write_manifest(
    out_dir: str | Path,
    cells: list[SweepCell],
    *,
    grid_id: str,
    max_attempts: int,
    timeout_s: float | None,
    lease_ttl_s: float,
) -> dict[str, Any]:
    """Partition the campaign into the durable queue (atomic, idempotent);
    returns the manifest document written."""
    doc = {
        "version": MANIFEST_VERSION,
        "grid_id": grid_id,
        "created_ts": round(time.time(), 3),
        "max_attempts": max_attempts,
        "timeout_s": timeout_s,
        "lease_ttl_s": lease_ttl_s,
        "cells": [cell.to_dict() for cell in cells],
    }
    # insertion order, never sorted: ``apps`` order is part of the cell id
    write_record(manifest_path(out_dir), doc)
    return doc


def find_manifest(out_dir: str | Path) -> dict[str, Any] | None:
    """The published manifest, or None when there is none (yet); a
    manifest of another version raises :class:`DistribError`."""
    doc = read_record(manifest_path(out_dir))
    if doc is not None and doc.get("version") != MANIFEST_VERSION:
        raise DistribError(
            f"manifest version {doc.get('version')!r} unsupported "
            f"(this build speaks {MANIFEST_VERSION})"
        )
    return doc


def load_manifest(out_dir: str | Path) -> dict[str, Any]:
    doc = find_manifest(out_dir)
    if doc is None:
        raise DistribError(
            f"no campaign manifest at {manifest_path(out_dir)} — start the "
            "coordinator first (dssoc-emulate sweep --workers N --out DIR)"
        )
    return doc


def manifest_cells(manifest: dict[str, Any]) -> dict[str, SweepCell]:
    """The campaign's distinct cells by cell id, in grid order.  The id is
    a content hash — identical on every host — computed here once per
    cell; a cell the grid names twice is one piece of work."""
    by_id: dict[str, SweepCell] = {}
    for data in manifest["cells"]:
        cell = SweepCell.from_dict(data)
        by_id.setdefault(cell.cell_id, cell)
    return by_id


def lease_ttl_s(
    manifest: dict[str, Any] | None, override: float | None = None
) -> float:
    """The campaign's lease ttl: ``override`` when set, else the
    manifest's, else :data:`DEFAULT_LEASE_TTL_S`."""
    if override is not None:
        return float(override)
    return float((manifest or {}).get("lease_ttl_s") or DEFAULT_LEASE_TTL_S)


def max_attempts(manifest: dict[str, Any] | None) -> int:
    """Attempts a cell gets before its failure is final (at least one)."""
    return max(1, int((manifest or {}).get("max_attempts", 1)))


def reset(out_dir: str | Path) -> None:
    """Forget a previous campaign's queue state — leases, shards,
    heartbeats, failure records, merge offsets.  The cache stays: the
    next cache pass mines it."""
    stale = [merge_state_path(out_dir)]
    for name in (_LEASES, _SHARDS, _WORKERS, _FAILED):
        directory = distrib_dir(out_dir, name)
        if directory.is_dir():
            stale.extend(directory.iterdir())
    for path in stale:
        _unlink(path)


# -- stop flag -------------------------------------------------------------------


def request_stop(out_dir: str | Path, reason: str = "coordinator") -> None:
    write_record(
        stop_path(out_dir), {"reason": reason, "ts": round(time.time(), 3)}
    )


def clear_stop(out_dir: str | Path) -> None:
    _unlink(stop_path(out_dir))


def stop_requested(out_dir: str | Path) -> bool:
    return stop_path(out_dir).exists()


# -- failure records (lease-holder-only writes) ----------------------------------


def _failure_path(out_dir: str | Path, cell_id: str) -> Path:
    return distrib_dir(out_dir, _FAILED, f"{cell_id}.json")


def record_failure(
    out_dir: str | Path, cell_id: str, error: str, *,
    max_attempts: int, worker: str,
) -> dict[str, Any]:
    """Charge ``worker``'s failed attempt; marks the cell final at the budget.

    Must only be called while holding the cell's lease — that is what
    makes the read-modify-write safe with many workers.
    """
    path = _failure_path(out_dir, cell_id)
    record = read_record(path) or {"cell_id": cell_id, "attempts": 0, "errors": []}
    record["attempts"] = int(record.get("attempts", 0)) + 1
    record.setdefault("errors", []).append(error)
    record["errors"] = record["errors"][-8:]  # bound the record size
    record["final"] = record["attempts"] >= max_attempts
    record["worker"] = worker
    record["ts"] = round(time.time(), 3)
    write_record(path, record)
    return record


def clear_failure(out_dir: str | Path, cell_id: str) -> None:
    _unlink(_failure_path(out_dir, cell_id))


def failure(out_dir: str | Path, cell_id: str) -> dict[str, Any] | None:
    return read_record(_failure_path(out_dir, cell_id))


def failed_final(out_dir: str | Path) -> dict[str, dict[str, Any]]:
    """All cells whose attempt budget is exhausted."""
    records = _records(distrib_dir(out_dir, _FAILED))
    return {cell_id: r for cell_id, r in records.items() if r.get("final")}


def failed_summary(out_dir: str | Path) -> dict[str, dict[str, Any]]:
    """:func:`failed_final` in the shape coordinators fold:
    ``{attempts, final, error}`` with the last recorded error."""
    return {
        cell_id: {
            "attempts": int(record.get("attempts", 1)),
            "final": True,
            "error": (record.get("errors") or ["?"])[-1],
        }
        for cell_id, record in failed_final(out_dir).items()
    }


# -- worker heartbeats -----------------------------------------------------------


def write_worker_status(out_dir: str | Path, worker_id: str, **fields: Any) -> None:
    write_record(
        distrib_dir(out_dir, _WORKERS, f"{worker_id}.json"),
        {"worker": worker_id, "ts": round(time.time(), 3), **fields},
    )


def worker_statuses(out_dir: str | Path) -> dict[str, dict[str, Any]]:
    return _records(distrib_dir(out_dir, _WORKERS))
