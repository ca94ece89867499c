"""Live campaign status: cells/sec, ETA, worker health, cache hit rate.

Pure read-side: a snapshot is computed only from what is already durable
in the campaign directory (manifest, canonical journal + index, worker
shards, heartbeats, leases, failure records), so ``sweep --status`` can
be pointed at a running campaign from any host sharing the filesystem
without perturbing it — it takes no leases, and its one write, the
clock probe in an existing ``distrib/leases/``, is removed at once.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable

from repro.dse import journal as journal_mod
from repro.dse.distrib import queue as layout
from repro.dse.distrib.leases import LeaseDir, lease_now

#: A worker whose heartbeat is older than this many lease ttls is dead.
_STALE_FACTOR = 3.0

#: Window for the "recent" throughput estimate feeding the ETA.
_RECENT_WINDOW_S = 60.0

#: Heartbeats this far in the future (vs this host's clock) are flagged
#: as cross-host clock skew rather than treated as rounding noise.
_SKEW_TOLERANCE_S = 0.5


#: Worker states written on the way out; such a worker is not coming back.
_TERMINAL_STATES = (
    "done", "stop_requested", "interrupted", "oneshot_drained",
    "max_cells", "server_lost",
)


def worker_health(state: str | None, age_s: float, lease_ttl_s: float) -> str:
    """``exited`` / ``live`` / ``stale`` / ``dead`` from a worker's last
    reported state and the age of its last heartbeat."""
    if state in _TERMINAL_STATES:
        return "exited"
    if age_s <= lease_ttl_s:
        return "live"
    if age_s <= _STALE_FACTOR * lease_ttl_s:
        return "stale"
    return "dead"


def throughput(
    resolution_ts: Iterable[float], now: float, remaining: int
) -> dict[str, float | None]:
    """Overall and recent cells/s from resolution timestamps, and the ETA
    for ``remaining`` cells at the recent rate (overall when idle)."""
    ts = sorted(resolution_ts)
    rate = recent_rate = 0.0
    if len(ts) >= 2 and ts[-1] > ts[0]:
        rate = (len(ts) - 1) / (ts[-1] - ts[0])
    recent = [t for t in ts if t >= now - _RECENT_WINDOW_S]
    if recent:
        recent_rate = len(recent) / _RECENT_WINDOW_S
    best = recent_rate or rate
    eta_s = remaining / best if best > 0 and remaining > 0 else None
    return {
        "cells_per_s": round(rate, 4),
        "recent_cells_per_s": round(recent_rate, 4),
        "eta_s": round(eta_s, 1) if eta_s is not None else None,
    }


def campaign_snapshot(out_dir: str | Path) -> dict[str, Any]:
    """One structured snapshot of a (possibly running) distributed campaign."""
    out_path = Path(out_dir)
    manifest = layout.load_manifest(out_path)
    lease_ttl = layout.lease_ttl_s(manifest)
    ids = set(layout.manifest_cells(manifest))
    journal_path = layout.journal_path(out_path)

    # Canonical view (merged by the coordinator) ...
    state = journal_mod.replay_indexed(journal_path, write=False)
    completed = set(state.completed)
    # ... plus shard events the coordinator has not merged yet, which also
    # carry the timestamps the throughput estimate needs.
    resolution_ts: list[float] = []
    #: cells some ``cell_cached`` event names (distinct: workers that
    #: re-discover each other's results each write a line for the same cell)
    cached_ids: set[Any] = set()
    per_worker: dict[str, dict[str, Any]] = {}
    for shard in layout.shard_paths(out_path):
        worker = shard.stem
        finishes = cached = errors = 0
        last_ts = 0.0
        wall = 0.0
        for event in journal_mod.read_events(shard):
            kind = event.get("event")
            ts = float(event.get("ts", 0.0))
            if kind == journal_mod.EVENT_CELL_FINISH:
                finishes += 1
                resolution_ts.append(ts)
                wall += float(event.get("wall_time_s", 0.0))
                completed.add(event.get("cell_id"))
            elif kind == journal_mod.EVENT_CELL_CACHED:
                cached += 1
                resolution_ts.append(ts)
                completed.add(event.get("cell_id"))
                cached_ids.add(event.get("cell_id"))
            elif kind == journal_mod.EVENT_CELL_ERROR:
                errors += 1
            last_ts = max(last_ts, ts)
        per_worker[worker] = {
            "executed": finishes,
            "cached": cached,
            "errors": errors,
            "last_event_ts": last_ts,
            "wall_time_s": round(wall, 3),
        }
    completed.discard(None)
    completed &= ids

    failed = layout.failed_final(out_path)
    resolved = len(completed) + len(set(failed) & ids)
    total = len(ids)

    # Worker health from heartbeats.  Heartbeat files carry the *writing
    # host's* wall clock; on a fleet whose clocks disagree a worker can
    # appear to have beaten in the future.  A negative raw age clamps to
    # zero (a worker that just wrote is live, whatever its clock says)
    # and is surfaced as ``clock_skew`` so the operator knows the ages in
    # this table are unreliable rather than quietly wrong.
    now = time.time()
    any_skew = False
    workers: list[dict[str, Any]] = []
    for worker_id, status in sorted(layout.worker_statuses(out_path).items()):
        raw_age = now - float(status.get("ts", 0.0))
        skewed = raw_age < -_SKEW_TOLERANCE_S
        any_skew = any_skew or skewed
        age = max(0.0, raw_age)
        shard = per_worker.get(worker_id, {})
        workers.append({
            "worker": worker_id,
            "health": worker_health(status.get("state"), age, lease_ttl),
            "state": status.get("state"),
            "heartbeat_age_s": round(age, 1),
            "clock_skew": skewed,
            "current_cell": status.get("current_cell"),
            "executed": shard.get("executed", 0),
            "cached": shard.get("cached", 0),
            "errors": shard.get("errors", 0),
        })

    # In-flight leases, judged against the shared filesystem's clock.
    leases = []
    leases_root = layout.leases_dir(out_path)
    if leases_root.is_dir():
        lease_dir = LeaseDir(leases_root, owner="status", ttl_s=lease_ttl)
        fs_now = lease_now(leases_root)
        for name, info in sorted(lease_dir.held().items()):
            leases.append({
                "cell_id": name,
                "owner": info.owner,
                "age_s": round(info.age_s(fs_now), 1),
                "stale": lease_dir.is_stale(info, fs_now),
            })

    # ... and the ones in the canonical journal: the coordinator's cache
    # pass and shard lines already merged (the same cells, counted once).
    cached_ids.update(
        e.get("cell_id")
        for e in journal_mod.read_events(journal_path)
        if e.get("event") == journal_mod.EVENT_CELL_CACHED
    )
    hit_rate = len(cached_ids & completed) / resolved if resolved else 0.0

    return {
        "out_dir": str(out_path),
        "grid_id": manifest.get("grid_id"),
        "created_ts": manifest.get("created_ts"),
        "lease_ttl_s": lease_ttl,
        "cells": total,
        "resolved": resolved,
        "completed": len(completed),
        "failed": len(set(failed) & ids),
        "in_flight": len(leases),
        "stop_requested": layout.stop_requested(out_path),
        "clock_skew": any_skew,
        **throughput(resolution_ts, now, total - resolved),
        "cache_hit_rate": round(hit_rate, 4),
        "workers": workers,
        "leases": leases,
    }


def render_status(snap: dict[str, Any]) -> str:
    """Human-readable status block for ``sweep --status``."""
    lines: list[str] = []
    done = snap["resolved"]
    total = snap["cells"]
    pct = 100.0 * done / total if total else 100.0
    lines.append(
        f"campaign {snap['grid_id']} — {done}/{total} cells resolved "
        f"({pct:.1f}%), {snap['completed']} completed, "
        f"{snap['failed']} failed, {snap['in_flight']} in flight"
    )
    eta = f"{snap['eta_s']:.0f}s" if snap["eta_s"] is not None else "—"
    lines.append(
        f"throughput {snap['cells_per_s']:.2f} cells/s overall, "
        f"{snap['recent_cells_per_s']:.2f} recent; ETA {eta}; "
        f"cache hit rate {100.0 * snap['cache_hit_rate']:.0f}%"
    )
    if snap["stop_requested"] and done < total:
        lines.append("STOP requested — workers are draining")
    if snap.get("clock_skew"):
        lines.append(
            "WARNING: worker heartbeats are ahead of this host's clock — "
            "fleet clocks are skewed; heartbeat ages are clamped to 0"
        )
    if snap["workers"]:
        lines.append("")
        lines.append(
            f"{'worker':<24} {'health':<7} {'beat':>6} {'run':>5} "
            f"{'hit':>4} {'err':>4}  current cell"
        )
        for w in snap["workers"]:
            lines.append(
                f"{w['worker']:<24} {w['health']:<7} "
                f"{w['heartbeat_age_s']:>5.1f}s {w['executed']:>5} "
                f"{w['cached']:>4} {w['errors']:>4}  "
                f"{w['current_cell'] or '-'}"
            )
    else:
        lines.append("no workers have attached yet")
    stale = [entry for entry in snap["leases"] if entry["stale"]]
    if stale:
        lines.append(
            f"{len(stale)} stale lease(s) pending re-issue: "
            + ", ".join(entry["cell_id"][:8] for entry in stale[:6])
        )
    return "\n".join(lines)


def status_line(snap: dict[str, Any]) -> str:
    """One-line progress summary for the coordinator's live stream."""
    live = sum(1 for w in snap["workers"] if w["health"] == "live")
    eta = f"{snap['eta_s']:.0f}s" if snap["eta_s"] is not None else "—"
    return (
        f"[distrib] {snap['resolved']}/{snap['cells']} cells, "
        f"{live} workers live, "
        f"{snap['recent_cells_per_s'] or snap['cells_per_s']:.2f} cells/s, "
        f"ETA {eta}, cache {100.0 * snap['cache_hit_rate']:.0f}%"
    )
