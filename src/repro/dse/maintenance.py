"""Campaign-directory housekeeping: ``dssoc-emulate sweep --gc``.

A long-lived campaign directory accretes garbage: temp files abandoned
by killed writers, corrupt or version-mismatched cache entries, cache
entries for cells no journal or manifest references anymore (e.g. after
a grid was narrowed), stale lease tombstones, and a journal that grows
without bound across resumes.  :func:`gc_campaign` reclaims all of it:

* **temp files** — every durable document is written through
  :mod:`repro.common.atomic`, so a killed writer leaves exactly one kind
  of debris, ``<name>.<pid>.<n>.tmp``.  It is collected once older than
  ``TMP_GRACE_S`` wherever a writer works: ``cache/``, the campaign root
  (journal index, compaction, ``results.json``), everywhere under
  ``distrib/`` (manifest, merge offsets, ``workers/``, ``failed/``), and
  the result spools (``*spool*/``).
* **cache** — removes entries that fail to parse or carry a foreign
  cache version, and (when the campaign has a journal or manifest to
  define "referenced") entries for unreferenced cells.  GC is
  deliberately campaign-scoped: do not point it at a cache directory
  shared by campaigns whose journals live elsewhere.
* **journal** — compacts to the minimal equivalent history: the latest
  ``campaign_start``, one resolving event per completed cell, the last
  error per failed cell, start/interrupt markers for incomplete cells,
  and the final ``campaign_end``.  The rewrite is atomic (temp +
  rename) and refreshes the index sidecar, so ``--resume`` semantics
  are exactly preserved while replay cost drops to O(cells).
* **distrib debris** — expired leases, claim temps and tombstones, and
  heartbeat files of long-gone workers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable

from repro.dse import journal as journal_mod
from repro.dse.cache import CACHE_VERSION, ResultCache
from repro.dse.distrib import queue as layout
from repro.dse.distrib.leases import LeaseDir
from repro.dse.journal import Journal

#: Temp files younger than this may belong to a live writer; left alone.
TMP_GRACE_S = 15 * 60.0

#: Worker heartbeat files older than this are considered abandoned.
WORKER_FILE_TTL_S = 24 * 3600.0


def _referenced_cells(out_dir: Path) -> set[str] | None:
    """Cell IDs this campaign still knows about, or None when undefinable."""
    referenced: set[str] = set()
    have_any = False
    journal_path = layout.journal_path(out_dir)
    if journal_path.exists():
        have_any = True
        state = journal_mod.replay(journal_path)
        referenced |= state.completed | state.started | set(state.errored)
        referenced |= state.interrupted
    try:  # a missing or unreadable manifest references nothing
        manifest = layout.find_manifest(out_dir)
        if manifest is not None:
            referenced |= set(layout.manifest_cells(manifest))
            have_any = True
    except (layout.DistribError, KeyError):
        pass
    # Unmerged worker shards may reference cells the canonical journal
    # has not seen yet; never treat those as orphans.
    for shard in layout.shard_paths(out_dir):
        have_any = True
        for event in journal_mod.read_events(shard):
            cell_id = event.get("cell_id")
            if cell_id:
                referenced.add(cell_id)
    return referenced if have_any else None


def _sweep_tmp(tmp_files: Iterable[Path], now: float) -> int:
    """Unlink the temp files past their grace period; returns the count."""
    removed = 0
    for tmp in tmp_files:
        try:
            if now - tmp.stat().st_mtime >= TMP_GRACE_S:
                tmp.unlink()
                removed += 1
        except OSError:
            pass
    return removed


def _gc_cache(out_dir: Path, now: float) -> dict[str, int]:
    cache = ResultCache(layout.cache_dir(out_dir))
    report = {
        "tmp_removed": _sweep_tmp(cache.tmp_files(), now),
        "corrupt_removed": 0,
        "orphans_removed": 0,
    }
    referenced = _referenced_cells(out_dir)
    for cell_id in cache.cell_ids():
        path = cache.path_for(cell_id)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            valid = (
                isinstance(entry, dict)
                and entry.get("version") == CACHE_VERSION
                and isinstance(entry.get("metrics"), dict)
            )
        except (OSError, json.JSONDecodeError):
            valid = False
        if not valid:
            if cache.discard(cell_id):
                report["corrupt_removed"] += 1
        elif referenced is not None and cell_id not in referenced:
            if cache.discard(cell_id):
                report["orphans_removed"] += 1
    return report


def compact_journal(journal_path: str | Path) -> dict[str, int]:
    """Atomically rewrite the journal to its minimal equivalent history."""
    journal_path = Path(journal_path)
    events = journal_mod.read_events(journal_path)
    if not events:
        return {"events_before": 0, "events_after": 0}

    start_event: dict[str, Any] | None = None
    end_event: dict[str, Any] | None = None
    resolving: dict[str, dict[str, Any]] = {}
    last_error: dict[str, dict[str, Any]] = {}
    last_start: dict[str, dict[str, Any]] = {}
    interrupted: dict[str, dict[str, Any]] = {}
    for event in events:
        kind = event["event"]
        if kind == journal_mod.EVENT_CAMPAIGN_START:
            start_event = event
        elif kind == journal_mod.EVENT_CAMPAIGN_END:
            end_event = event
        cell_id = event.get("cell_id")
        if not cell_id:
            continue
        if kind in (journal_mod.EVENT_CELL_FINISH,
                    journal_mod.EVENT_CELL_CACHED):
            resolving.setdefault(cell_id, event)
        elif kind == journal_mod.EVENT_CELL_ERROR:
            last_error[cell_id] = event
        elif kind == journal_mod.EVENT_CELL_START:
            last_start[cell_id] = event
        elif kind == journal_mod.EVENT_CELL_INTERRUPTED:
            interrupted[cell_id] = event

    completed = set(resolving)
    keep: list[dict[str, Any]] = []
    if start_event is not None:
        keep.append(start_event)
    keep.extend(resolving.values())
    for cell_id, event in last_error.items():
        if cell_id not in completed:
            keep.append(event)
    for cell_id, event in last_start.items():
        if cell_id not in completed and cell_id not in last_error:
            keep.append(event)
    for cell_id, event in interrupted.items():
        if cell_id not in completed:
            keep.append(event)
    if end_event is not None:
        keep.append(end_event)

    tmp = journal_path.with_name(f"{journal_path.name}.{os.getpid()}.tmp")
    with Journal(tmp) as writer:
        for event in keep:
            fields = {
                k: v for k, v in event.items() if k not in ("event", "seq")
            }
            writer.append(event["event"], **fields)
    os.replace(tmp, journal_path)
    journal_mod.write_index(journal_path, journal_mod.replay(journal_path))
    return {"events_before": len(events), "events_after": len(keep)}


def _gc_distrib(out_dir: Path, now: float) -> dict[str, int]:
    report = {"tmp_removed": 0, "lease_debris": 0, "stale_worker_files": 0}
    root = layout.distrib_dir(out_dir)
    if not root.is_dir():
        return report
    report["tmp_removed"] = _sweep_tmp(root.rglob("*.tmp"), now)
    leases_dir = layout.leases_dir(out_dir)
    if leases_dir.is_dir():
        report["lease_debris"] = LeaseDir(
            leases_dir, owner="gc", ttl_s=layout.DEFAULT_LEASE_TTL_S
        ).sweep_debris()
    for path in layout.worker_paths(out_dir):
        try:
            if now - path.stat().st_mtime >= WORKER_FILE_TTL_S:
                path.unlink()
                report["stale_worker_files"] += 1
        except OSError:
            pass
    return report


def gc_campaign(out_dir: str | Path) -> dict[str, Any]:
    """Garbage-collect one campaign directory; returns a report dict."""
    out_path = Path(out_dir)
    now = time.time()
    report: dict[str, Any] = {"out_dir": str(out_path)}
    report["cache"] = _gc_cache(out_path, now)
    journal_path = layout.journal_path(out_path)
    if journal_path.exists():
        report["journal"] = compact_journal(journal_path)
    else:
        report["journal"] = {"events_before": 0, "events_after": 0}
    report["journal"]["tmp_removed"] = _sweep_tmp(out_path.glob("*.tmp"), now)
    report["distrib"] = _gc_distrib(out_path, now)
    report["spools"] = {
        "tmp_removed": _sweep_tmp(out_path.glob(f"{layout.SPOOL_GLOB}/*.tmp"), now)
    }
    return report
