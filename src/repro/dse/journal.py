"""Append-only JSONL campaign journal with crash-resume replay.

Every campaign event — start, per-cell start/finish/error/cache-hit,
end — is one JSON line, flushed as written.  A campaign killed mid-flight
leaves a journal whose replay identifies exactly which cells completed;
``run_campaign(..., resume=True)`` re-queues only the rest.

The reader is deliberately tolerant: a process killed mid-``write`` can
leave a truncated final line, which replay skips rather than failing,
and unknown event types are ignored so journals stay forward-compatible.

Large campaigns resume through an *index* sidecar (``journal.jsonl.idx``):
a snapshot of the folded :class:`JournalState` plus the byte offset it
covers.  :func:`replay_indexed` seeks past the indexed prefix and folds
only the tail, so resuming a million-cell campaign does not re-read (and
re-parse) the whole journal every time.  The index is advisory — when
missing, stale, or disagreeing with the journal head it is ignored and a
full replay rebuilds it.  The campaign store writes it at close from the
state its :class:`Journal` folded while writing, without a read-back.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterable

from repro.common.atomic import atomic_write_json, dumps_sorted
from repro.common.retry import FS_RETRY, is_transient_oserror

EVENT_CAMPAIGN_START = "campaign_start"
EVENT_CAMPAIGN_END = "campaign_end"
EVENT_CELL_START = "cell_start"
EVENT_CELL_FINISH = "cell_finish"
EVENT_CELL_ERROR = "cell_error"
EVENT_CELL_CACHED = "cell_cached"
EVENT_CELL_INTERRUPTED = "cell_interrupted"

#: Events that resolve a cell as completed.
_COMPLETING = (EVENT_CELL_FINISH, EVENT_CELL_CACHED)

#: Bumped when the index sidecar layout changes; other versions are ignored.
INDEX_VERSION = 1

#: Bytes of the journal head stored in the index to detect a journal that
#: was truncated and rewritten underneath its sidecar.
_HEAD_PROBE = 96


def _resolved(
    cell_id: str, label: str, metrics: dict[str, Any], attempts: int,
    worker: str | None, wall_time_s: float | None,
) -> dict[str, Any]:
    """The six fields both resolving records (finish, cached) carry."""
    return {
        "cell_id": cell_id,
        "label": label,
        "makespan_ms": metrics.get("makespan_ms"),
        "attempts": attempts,
        "worker": worker,
        "wall_time_s": wall_time_s,
    }


class Journal:
    """Append-only event writer (one JSON object per line).

    With ``state`` set — to the replay of what the file holds once opened,
    or an empty one for a fresh file — the journal folds every record it
    writes into it, and :meth:`close` sets its ``offset`` to the file's
    size, so the state is what :func:`replay` would read back without
    reading anything.  That holds while ``clean``: a failed or retried
    write (the file may hold part of a line, or a line twice) clears it
    for good.
    """

    def __init__(self, path: str | Path, *, resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            _repair_torn_tail(self.path)
        mode = "a" if resume else "w"
        self._fh: IO[str] | None = open(self.path, mode, encoding="utf-8")
        self._seq = 0
        self.state: JournalState | None = None
        self.clean = True

    def append(self, event: str, **fields: Any) -> None:
        """Append one event and flush it before returning."""
        self._write(self._line(event, fields))

    def append_many(self, event: str, records: Iterable[dict[str, Any]]) -> None:
        """Append one ``event`` line per record in a single write + flush.

        Each line gets its own ``seq``/``ts`` exactly as :meth:`append`
        stamps them.  For batches whose durable truth lives elsewhere (a
        cache hit's entry, a shard's own lines): a kill mid-batch loses
        only lines the next run re-derives.
        """
        try:
            text = "".join(self._line(event, fields) for fields in records)
        except BaseException:
            self.clean = False  # the lines folded so far are not written
            raise
        if text:
            self._write(text)

    # -- per-cell records ------------------------------------------------------------
    #
    # The one place the five per-cell record shapes are spelled: the local
    # executors, a directory worker's shard and the server all write them
    # through these, so a record carries the same keys in every mode.
    # ``worker`` is who ran or resolved the cell; the local executors'
    # start / error / interrupt lines name nobody and leave the key out.

    def _cell(
        self, event: str, cell_id: str, label: str, worker: str | None, **fields: Any
    ) -> None:
        if worker is not None:
            fields["worker"] = worker
        self.append(event, cell_id=cell_id, label=label, **fields)

    def cell_start(
        self, cell_id: str, label: str, attempt: int, *, worker: str | None = None
    ) -> None:
        self._cell(EVENT_CELL_START, cell_id, label, worker, attempt=attempt)

    def cell_error(
        self, cell_id: str, label: str, error: str | None, attempts: int,
        *, worker: str | None = None,
    ) -> None:
        self._cell(
            EVENT_CELL_ERROR, cell_id, label, worker, error=error, attempts=attempts
        )

    def cell_interrupted(
        self, cell_id: str, label: str, *, worker: str | None = None
    ) -> None:
        """An attempt cut short by a signal (the cell stays incomplete)."""
        self._cell(EVENT_CELL_INTERRUPTED, cell_id, label, worker)

    def cell_finish(
        self, cell_id: str, label: str, metrics: dict[str, Any], *, attempts: int,
        worker: str | None, wall_time_s: float | None, token: str | None = None,
    ) -> None:
        """``token`` is the submit's idempotency token, where there is one."""
        fields = _resolved(cell_id, label, metrics, attempts, worker, wall_time_s)
        if token is not None:
            fields["token"] = token
        self.append(EVENT_CELL_FINISH, **fields)

    def cells_cached(
        self, hits: Iterable[tuple[str, str, dict[str, Any]]], *, worker: str
    ) -> None:
        """One ``cell_cached`` line per ``(cell_id, label, cached metrics)``,
        the whole batch in a single :meth:`append_many`."""
        self.append_many(EVENT_CELL_CACHED, [
            _resolved(cell_id, label, hit, 0, worker, hit.get("wall_time_s"))
            for cell_id, label, hit in hits
        ])

    def _line(self, event: str, fields: dict[str, Any]) -> str:
        if self._fh is None:
            raise ValueError("journal is closed")
        self._seq += 1
        record = {
            "event": event,
            "seq": self._seq,
            "ts": round(time.time(), 3),
            **fields,
        }
        text = dumps_sorted(record) + "\n"
        if self.state is not None:
            self.state.fold(record)
        return text

    def _write(self, text: str) -> None:
        try:
            self._fh.write(text)
            self._fh.flush()
        except BaseException as exc:
            self.clean = False  # part of ``text`` may have landed
            if not is_transient_oserror(exc):
                raise
            self._retry_append(text)

    def _retry_append(self, text: str) -> None:
        """Recover an append hit by a transient filesystem hiccup.

        ``EINTR``/``ESTALE``/``EAGAIN`` (NFS remounts, interrupted
        syscalls) can leave the stream handle poisoned and the file with
        a torn partial line, so each retry reopens the journal after
        isolating any torn tail and writes the whole text (one line, or a
        batch) again.  Replay skips torn fragments, and completed-set
        folding is idempotent, so the rare double-written line is
        harmless — losing the event is the only real failure.
        """

        def attempt() -> None:
            if self._fh is not None:
                try:
                    self._fh.close()
                except OSError:
                    pass
            _repair_torn_tail(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(text)
            self._fh.flush()

        FS_RETRY.call(attempt)

    def close(self) -> None:
        if self._fh is not None:
            if self.state is not None:
                # every write was flushed: the size is what a replay consumes
                self.state.offset = os.fstat(self._fh.fileno()).st_size
            self._fh.close()
            self._fh = None

    def __enter__(self) -> Journal:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _repair_torn_tail(path: Path) -> None:
    """Terminate a torn final line before appending after a crash.

    A process killed mid-``write`` can leave the journal without a final
    newline; appending straight after it would glue the next record onto
    the torn fragment and lose *both* lines.  A lone newline keeps the
    fragment isolated (replay already skips unparseable lines).
    """
    try:
        with open(path, "rb+") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if size == 0:
                return
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
    except FileNotFoundError:
        pass


@dataclass
class JournalState:
    """Replay of a journal: where a (possibly crashed) campaign got to."""

    completed: set[str] = field(default_factory=set)
    errored: dict[str, int] = field(default_factory=dict)
    started: set[str] = field(default_factory=set)
    interrupted: set[str] = field(default_factory=set)
    events: int = 0
    #: byte offset of the last fully-parsed line (what an index may skip to)
    offset: int = 0

    @property
    def incomplete(self) -> set[str]:
        """Cells that started (or errored/interrupted) but never finished."""
        return (
            self.started | set(self.errored) | self.interrupted
        ) - self.completed

    def fold(self, record: dict[str, Any]) -> None:
        """Fold one journal event into the state."""
        self.events += 1
        cell_id = record.get("cell_id")
        if not cell_id:
            return
        event = record["event"]
        if event == EVENT_CELL_START:
            self.started.add(cell_id)
        elif event in _COMPLETING:
            self.completed.add(cell_id)
        elif event == EVENT_CELL_ERROR:
            self.errored[cell_id] = self.errored.get(cell_id, 0) + 1
        elif event == EVENT_CELL_INTERRUPTED:
            # Interrupted cells stay incomplete: --resume re-runs them.
            self.interrupted.add(cell_id)


def read_events_from(
    path: str | Path, offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """Parseable events at/after ``offset``, plus the offset consumed.

    Only newline-terminated lines count toward the returned offset, so a
    torn tail (crash mid-write) is neither parsed nor consumed — a later
    call resumes exactly where this one stopped.
    """
    events: list[dict[str, Any]] = []
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            consumed = offset
            for raw in fh:
                if not raw.endswith(b"\n"):
                    break  # torn tail — leave it for the next reader
                consumed += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # torn write from a crash — ignore
                if isinstance(record, dict) and "event" in record:
                    events.append(record)
    except FileNotFoundError:
        return [], offset
    return events, consumed


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """All parseable events in the journal; a truncated tail is skipped."""
    events, _offset = read_events_from(path, 0)
    return events


def replay(path: str | Path) -> JournalState:
    """Fold the whole journal into the completed/incomplete cell sets."""
    state = JournalState()
    events, offset = read_events_from(path, 0)
    for record in events:
        state.fold(record)
    state.offset = offset
    return state


# -- index sidecar ---------------------------------------------------------------


def index_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".idx")


def _journal_head(path: Path) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read(_HEAD_PROBE).decode("utf-8", "replace")
    except FileNotFoundError:
        return ""


def write_index(path: str | Path, state: JournalState) -> Path:
    """Atomically persist a replay snapshot next to the journal."""
    path = Path(path)
    idx = index_path(path)
    doc = {
        "version": INDEX_VERSION,
        "offset": state.offset,
        "head": _journal_head(path),
        "events": state.events,
        "completed": sorted(state.completed),
        "errored": state.errored,
        "started": sorted(state.started),
        "interrupted": sorted(state.interrupted),
    }
    atomic_write_json(idx, doc)
    return idx


def _load_index(path: Path) -> JournalState | None:
    """The indexed prefix state, or None when absent/stale/untrusted."""
    try:
        with open(index_path(path), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != INDEX_VERSION:
        return None
    try:
        offset = int(doc["offset"])
        if offset < 0 or offset > path.stat().st_size:
            return None  # journal shrank: it was truncated/rewritten
        head = str(doc["head"])
        if head != _journal_head(path)[: len(head)]:
            return None  # different journal under the same name
        return JournalState(
            completed=set(doc["completed"]),
            errored={str(k): int(v) for k, v in doc["errored"].items()},
            started=set(doc["started"]),
            interrupted=set(doc["interrupted"]),
            events=int(doc["events"]),
            offset=offset,
        )
    except (KeyError, TypeError, ValueError, OSError):
        return None


def replay_indexed(path: str | Path, *, write: bool = True) -> JournalState:
    """Like :func:`replay` but seeded from the index sidecar when valid.

    Only the journal tail past the indexed offset is read; the refreshed
    snapshot is written back (``write=False`` for read-only callers such
    as ``sweep --status`` on another host's campaign directory).
    """
    path = Path(path)
    state = _load_index(path) or JournalState()
    events, offset = read_events_from(path, state.offset)
    for record in events:
        state.fold(record)
    state.offset = offset
    if write and (events or state.events == 0):
        try:
            write_index(path, state)
        except OSError:
            pass  # a read-only campaign dir only costs the fast path
    return state
