"""Tests for :class:`repro.dse.distrib.store.CampaignStore`, the one owner
of a campaign directory's durable state: exactly-once resolution, the
cache pass, the fresh-campaign reset and the close-time index refresh —
the behaviours every campaign mode now gets from the same code."""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dse import SweepGrid, run_campaign, validation_sweep
from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib import CampaignStore
from repro.dse.distrib import queue as layout
from tests.test_dse import _TornOnce

CELLS = {
    cell.cell_id: cell
    for cell in SweepGrid(
        configs=("2C+1F",), policies=("frfs", "met"),
        workloads=(validation_sweep({"wifi_tx": 1}),),
    ).expand()
}
CELL = next(iter(CELLS))
METRICS = {"makespan_ms": 1.5, "wall_time_s": 0.01, "worker": "w0"}


def events(store: CampaignStore, kind: str) -> list[dict]:
    return [e for e in journal_mod.read_events(store.journal_path)
            if e["event"] == kind]


def finish(store: CampaignStore, metrics: dict) -> bool:
    return store.finish(CELL, metrics, attempts=1, worker="w0",
                        wall_time_s=metrics["wall_time_s"])


def sidecar_is_replay(journal_path: Path) -> bool:
    """Is the sidecar byte for byte what a full replay of the journal
    would write?  (Replayed from a copy, so the sidecar stays put.)"""
    copy = journal_path.with_name("replayed.jsonl")
    shutil.copyfile(journal_path, copy)
    journal_mod.write_index(copy, journal_mod.replay(copy))
    return (journal_mod.index_path(journal_path).read_text()
            == journal_mod.index_path(copy).read_text())


class TestFinish:
    def test_second_finish_journals_nothing_and_keeps_the_first_entry(
            self, tmp_path):
        store = CampaignStore(tmp_path, resume=False, owner="t")
        assert finish(store, METRICS) is True
        assert finish(store, {**METRICS, "makespan_ms": 9.9}) is False
        store.close()
        assert len(events(store, journal_mod.EVENT_CELL_FINISH)) == 1
        assert store.fetch([CELL])[CELL]["makespan_ms"] == 1.5

    def test_resolved_cell_with_a_lost_entry_is_restored_without_a_line(
            self, tmp_path):
        first = CampaignStore(tmp_path, resume=False, owner="t")
        finish(first, METRICS)
        first.close()
        assert first.cache.discard(CELL)

        store = CampaignStore(tmp_path, resume=True, owner="t")
        assert CELL in store.state.completed
        assert store.cache_pass(force=False) == {}  # no cells, no hits
        assert finish(store, METRICS) is False
        store.close()
        assert store.cache.get(CELL) == METRICS
        assert len(events(store, journal_mod.EVENT_CELL_FINISH)) == 1


class TestCachePass:
    def _store(self, tmp_path, **kw) -> CampaignStore:
        store = CampaignStore(tmp_path, owner="t", **kw)
        store.cells = CELLS  # as a local campaign's driver sets them
        return store

    def test_force_drops_the_entries_and_journals_nothing(self, tmp_path):
        ResultCache(tmp_path / "cache").put(CELL, METRICS)
        store = self._store(tmp_path, resume=False)
        assert store.cache_pass(force=True) == {}
        store.close()
        assert store.cache.get(CELL) is None
        assert journal_mod.read_events(store.journal_path) == []

    def test_hits_the_journal_already_resolved_are_reported_not_rejournaled(
            self, tmp_path):
        ResultCache(tmp_path / "cache").put(CELL, METRICS)
        first = self._store(tmp_path, resume=False)
        assert first.cache_pass(force=False) == {CELL: METRICS}
        first.close()
        (line,) = events(first, journal_mod.EVENT_CELL_CACHED)
        assert {k: line[k] for k in line if k not in ("event", "seq", "ts")} == {
            "cell_id": CELL, "label": CELLS[CELL].label, "makespan_ms": 1.5,
            "attempts": 0, "worker": "coordinator", "wall_time_s": 0.01,
        }

        again = self._store(tmp_path, resume=True)
        assert again.cache_pass(force=False) == {CELL: METRICS}
        again.close()
        assert len(events(again, journal_mod.EVENT_CELL_CACHED)) == 1


class TestJournalLifecycle:
    def test_fresh_store_drops_the_sidecar_and_close_refreshes_it(
            self, tmp_path):
        first = CampaignStore(tmp_path, resume=False, owner="t")
        finish(first, METRICS)
        first.close()
        idx = journal_mod.index_path(first.journal_path)
        assert journal_mod.replay_indexed(
            first.journal_path, write=False).completed == {CELL}
        stale = idx.read_text()

        store = CampaignStore(tmp_path, resume=False, owner="t")
        assert not idx.exists()  # it described the journal just truncated
        assert store.state.completed == set()
        store.close()
        assert idx.exists() and idx.read_text() != stale
        assert journal_mod.replay_indexed(
            store.journal_path, write=False).completed == set()

    def test_close_never_raises_on_a_closed_journal(self, tmp_path):
        store = CampaignStore(tmp_path, resume=False, owner="t")
        store.publish([], grid_id="g", max_attempts=1, timeout_s=None,
                      lease_ttl_s=5.0, resume=False)
        store.close()
        # a worker's late shard line arrives after the journal is closed
        with journal_mod.Journal(layout.shard_path(tmp_path, "w9")) as shard:
            shard.cell_finish("late", "L", METRICS, attempts=1, worker="w9",
                              wall_time_s=0.01)
        store.close()

    def test_a_local_campaign_never_makes_the_queue_directories(self, tmp_path):
        store = CampaignStore(tmp_path, resume=False, owner="t")
        finish(store, METRICS)
        store.close()
        assert not (tmp_path / "distrib").exists()


IDS = ("c0", "c1", "c2", "c3")  # c0, c1 have cache entries
_CELL_OPS = ("start", "finish", "cached", "error", "interrupted")
_OPS = st.lists(
    st.tuples(st.sampled_from(_CELL_OPS), st.sampled_from(IDS))
    | st.tuples(st.sampled_from(("event", "retry")), st.none())
    | st.tuples(
        st.just("shards"),
        # (worker, kind, cell): the same cell twice is a duplicate finish
        st.lists(st.tuples(st.sampled_from(("w0", "w1")),
                           st.sampled_from(("finish", "cached")),
                           st.sampled_from(IDS)), min_size=1, max_size=5),
    ),
    max_size=12,
)
#: what a crash can leave after the last newline: part of a line, or a
#: whole record whose newline never landed
_TORN = {"half": '{"event": "cell_finish", "cell_id": "c',
         "whole": '{"cell_id": "c3", "event": "cell_start", "seq": 99}'}


def _apply(store: CampaignStore, op: str, arg) -> None:
    if op == "start":
        store.start(arg, 1)
    elif op == "finish":
        store.finish(arg, METRICS, attempts=1, worker="w", wall_time_s=0.01)
    elif op == "cached":
        if arg not in store.state.completed:  # the callers' contract
            store.cached(arg, "w")
    elif op == "error":
        store.error(arg, "boom", 1)
    elif op == "interrupted":
        store.interrupted(arg)
    elif op == "event":
        store.event(journal_mod.EVENT_CAMPAIGN_START, cells=len(IDS))
    elif op == "retry":  # the next write tears, fails transiently, is retried
        store.journal._fh = _TornOnce(store.journal._fh)
    else:
        for worker, kind, cell in arg:
            with journal_mod.Journal(layout.shard_path(store.out_dir, worker),
                                     resume=True) as shard:
                if kind == "finish":
                    shard.cell_finish(cell, cell, METRICS, attempts=1,
                                      worker=worker, wall_time_s=0.01)
                else:
                    shard.cells_cached([(cell, cell, METRICS)], worker=worker)
        store.merge()


def _resolutions(journal_path: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in journal_mod.read_events(journal_path):
        if event["event"] in (journal_mod.EVENT_CELL_FINISH,
                              journal_mod.EVENT_CELL_CACHED):
            counts[event["cell_id"]] = counts.get(event["cell_id"], 0) + 1
    return counts


class TestIndexFromWhatWasWritten:
    """The sidecar ``close`` writes comes from the state the journal folded
    while writing; it must be what a full replay of the file would write."""

    @settings(max_examples=60, deadline=None)
    @given(prior=_OPS, torn=st.sampled_from((None, "half", "whole")),
           resume=st.booleans(), ops=_OPS)
    # a retried four-line batch: its torn first half holds two whole lines,
    # which the retry writes again
    @example(prior=[], torn=None, resume=False, ops=[
        ("retry", None), ("shards", [("w0", "finish", cell) for cell in IDS])])
    def test_sidecar_equals_a_full_replay(self, prior, torn, resume, ops):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            for cell in IDS[:2]:
                ResultCache(out / "cache").put(cell, METRICS)
            first = CampaignStore(out, resume=False, owner="t")
            for op in prior:
                _apply(first, *op)
            first.close()
            assert sidecar_is_replay(first.journal_path)
            if torn:
                with open(first.journal_path, "a", encoding="utf-8") as fh:
                    fh.write(_TORN[torn])

            store = CampaignStore(out, resume=resume, owner="t")
            for op in ops:
                _apply(store, *op)
            store.close()
            assert sidecar_is_replay(store.journal_path)
            full = journal_mod.replay(store.journal_path)
            if store.journal.clean:
                assert store.state == full
            retried = any(op == "retry" for op, _ in prior + ops)
            if not retried:  # a retried batch may repeat a line
                assert set(_resolutions(store.journal_path).values()) <= {1}
            assert store.state.completed == full.completed

    def test_a_warm_pass_reads_nothing_back(self, tmp_path, monkeypatch):
        grid = SweepGrid(configs=("2C+1F", "3C+0F"), policies=("frfs", "met"),
                         workloads=(validation_sweep({"wifi_tx": 1}),))
        assert run_campaign(grid, out_dir=tmp_path).ok
        reads, paths = [], []
        read_events_from, path_for = (journal_mod.read_events_from,
                                      ResultCache.path_for)
        monkeypatch.setattr(journal_mod, "read_events_from", lambda *a, **k: (
            reads.append(a) or read_events_from(*a, **k)))
        monkeypatch.setattr(ResultCache, "path_for", lambda self, cell_id: (
            paths.append(cell_id) or path_for(self, cell_id)))
        warm = run_campaign(grid, out_dir=tmp_path)
        assert warm.cached_hits == len(warm) == 4
        assert reads == [] and paths == []
        assert sidecar_is_replay(tmp_path / "journal.jsonl")
        doc = json.loads(journal_mod.index_path(tmp_path / "journal.jsonl").read_text())
        assert doc["events"] == 6 and len(doc["completed"]) == 4


def test_put_if_absent_first_writer_wins(tmp_path):
    a, b = ResultCache(tmp_path), ResultCache(tmp_path)
    assert a.put_if_absent("cell", {"makespan_ms": 1.0}) is True
    assert b.put_if_absent("cell", {"makespan_ms": 2.0}) is False
    assert b.get("cell") == {"makespan_ms": 1.0}
