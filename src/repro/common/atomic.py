"""Atomic whole-file writes: unique temp name, then ``os.replace``.

Every durable document the DSE engine rewrites in place — cache
entries, the journal index, manifests, worker status, failure records,
merge offsets, spooled results, ``results.json`` — goes through here, so
a reader sees the old file or the new one and never a torn one, and a
killed writer leaves nothing behind but a ``*.tmp`` file that
``sweep --gc`` collects.

Documents are encoded with ``json.dumps``.  ``json.dump`` (and any
``indent=``) always runs the pure-Python chunked encoder; ``dumps``
without ``indent`` is the one-shot C encoder, several times faster on
the metrics payloads a campaign stores.  Sorted-key documents go through
:data:`dumps_sorted`, one encoder built at import.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Any, Iterable

#: Distinguishes this process's temp files from one another: writers are
#: threads (a worker's heartbeat thread and its main loop write the same
#: status file), and ``next()`` on a count is atomic under the GIL.
_serial = itertools.count()

#: ``json.dumps(doc, sort_keys=True)`` byte for byte, without the
#: ``JSONEncoder`` that call builds anew every time (the journal encodes
#: one per line).  Stateless between calls, so threads may share it.
dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with the concatenated ``lines`` (UTF-8) in one
    rename; ``lines`` may be a generator, so a large document need never
    exist in memory as one string.

    The temp name carries the pid and a per-process serial, so no two
    writers — processes on a shared mount or threads of one process —
    ever share a temp file; of concurrent writers the last rename wins.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_serial)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        # a retried write takes a new name; do not leave this one behind
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def atomic_write_json(path: str | Path, doc: Any, *, sort_keys: bool = False) -> None:
    """Replace ``path`` with ``doc`` as one line of JSON.

    Keys keep insertion order unless ``sort_keys``: the order of a
    validation workload's ``apps`` is execution-significant and part of
    ``SweepCell.cell_id``, so a manifest that sorted it would hand
    workers different cells than the coordinator expanded.
    """
    text = dumps_sorted(doc) if sort_keys else json.dumps(doc)
    atomic_write_lines(path, (text,))
