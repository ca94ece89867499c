"""Filesystem lease primitives for multi-host coordination.

The one thing in the distributed sweep service that needs mutual
exclusion — a cell's claim in the work queue, one lease per cell — goes
through one primitive: a *lease file* whose existence means "held",
whose JSON body names the owner, and whose mtime is the owner's
heartbeat.  The protocol uses only operations that are atomic on
NFS-style shared filesystems:

* **acquire** — write a private temp file, then ``os.link`` it to the
  lease name.  ``link`` fails with ``EEXIST`` when the lease is already
  held; unlike ``O_CREAT|O_EXCL``, it is atomic even on NFSv2 clients
  (the classic mail-spool locking technique).
* **renew** — ``os.utime`` on the lease path.  The file server's clock
  stamps the mtime, so expiry comparisons never mix two hosts' clocks:
  staleness is judged from the shared filesystem's own time base.
* **release** — *owner-checked*: the body is re-read and the lease is
  only unlinked when it still names this owner, so a worker that lost
  its lease to expiry can never release the new holder's claim.
* **break stale** — ``os.rename`` the expired lease aside to a
  uniquely-named tombstone first.  Rename is atomic and the source
  vanishes, so of N workers racing to break the same stale lease exactly
  one wins; the rest see ``ENOENT`` and move on.  The winner unlinks the
  tombstone and retries a normal acquire (which it can still lose to a
  faster peer — acquisition stays the single point of truth).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any


def lease_now(path: Path) -> float:
    """The shared filesystem's idea of "now" (its clock, not ours).

    Touching a probe file and reading its mtime back samples the file
    server's clock, which is the same clock that stamps lease renewals —
    so expiry decisions are consistent across hosts with skewed clocks.
    """
    # per thread as well as per process: callers race from worker threads
    probe = path / f".clock.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(probe, "w", encoding="utf-8"):
            pass
        return probe.stat().st_mtime
    finally:
        try:
            probe.unlink()
        except OSError:
            pass


@dataclass(frozen=True)
class LeaseInfo:
    """A snapshot of one held lease."""

    owner: str
    acquired_ts: float
    mtime: float

    def age_s(self, now: float) -> float:
        return max(0.0, now - self.mtime)


class LeaseDir:
    """A directory of lease files, one per resource name."""

    def __init__(self, root: str | Path, *, owner: str, ttl_s: float) -> None:
        if not (math.isfinite(ttl_s) and ttl_s > 0):
            raise ValueError(
                f"lease ttl must be a finite number above 0, got {ttl_s}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.owner = owner
        self.ttl_s = float(ttl_s)
        self._nonce = 0

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.lease"

    # -- inspection ------------------------------------------------------------------

    def info(self, name: str) -> LeaseInfo | None:
        """Owner and age of a lease, or None when unheld/unreadable."""
        path = self.path_for(name)
        try:
            mtime = path.stat().st_mtime
            with open(path, encoding="utf-8") as fh:
                body = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(body, dict):
            return None
        return LeaseInfo(
            owner=str(body.get("owner", "?")),
            acquired_ts=float(body.get("acquired_ts", 0.0)),
            mtime=mtime,
        )

    def held(self) -> dict[str, LeaseInfo]:
        """All currently-present leases, keyed by resource name."""
        out: dict[str, LeaseInfo] = {}
        for path in self.root.glob("*.lease"):
            name = path.name[: -len(".lease")]
            info = self.info(name)
            if info is not None:
                out[name] = info
        return out

    def is_stale(self, info: LeaseInfo, now: float | None = None) -> bool:
        if now is None:
            now = lease_now(self.root)
        return info.age_s(now) > self.ttl_s

    # -- protocol --------------------------------------------------------------------

    def _unique(self, tag: str) -> Path:
        self._nonce += 1
        return self.root / f".{tag}.{self.owner}.{os.getpid()}.{self._nonce}"

    def try_acquire(self, name: str, **meta: Any) -> bool:
        """One attempt to take the lease; never blocks, never breaks stale."""
        tmp = self._unique(f"claim.{name}")
        body = json.dumps(
            {"owner": self.owner, "acquired_ts": time.time(), **meta}
        )
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body)
        try:
            os.link(tmp, self.path_for(name))
            return True
        except FileExistsError:
            return False
        except OSError:
            # Filesystems without hardlinks (rare): fall back to O_EXCL.
            try:
                fd = os.open(
                    self.path_for(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            return True
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def break_stale(self, name: str) -> bool:
        """Tear down an expired lease; True when *this* caller won the race."""
        info = self.info(name)
        if info is None or not self.is_stale(info):
            return False
        tombstone = self._unique(f"stale.{name}")
        try:
            os.rename(self.path_for(name), tombstone)
        except OSError:
            return False  # someone else broke (or renewed) it first
        try:
            tombstone.unlink()
        except OSError:
            pass
        return True

    def acquire(self, name: str, **meta: Any) -> bool:
        """Take the lease, breaking it first if the holder's renewals stopped."""
        if self.try_acquire(name, **meta):
            return True
        self.break_stale(name)
        return self.try_acquire(name, **meta)

    def renew(self, name: str) -> bool:
        """Heartbeat: bump the lease mtime; False when the lease was lost."""
        try:
            os.utime(self.path_for(name))
            return True
        except OSError:
            return False

    def holds(self, name: str) -> bool:
        """Does this owner still hold the lease (not expired-and-stolen)?"""
        info = self.info(name)
        return info is not None and info.owner == self.owner

    def release(self, name: str) -> bool:
        """Owner-checked unlink; True when this owner's lease was removed."""
        if not self.holds(name):
            return False
        try:
            self.path_for(name).unlink()
            return True
        except OSError:
            return False

    def sweep_debris(self) -> int:
        """Remove abandoned claim temps and tombstones; returns the count."""
        removed = 0
        for path in self.root.glob(".claim.*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob(".stale.*"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
