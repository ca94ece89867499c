"""Tests for :class:`repro.dse.distrib.store.CampaignStore`, the one owner
of a campaign directory's durable state: exactly-once resolution, the
cache pass, the fresh-campaign reset and the close-time index refresh —
the behaviours every campaign mode now gets from the same code."""

from __future__ import annotations

from repro.dse import SweepGrid, validation_sweep
from repro.dse import journal as journal_mod
from repro.dse.cache import ResultCache
from repro.dse.distrib import CampaignStore

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
        with journal_mod.Journal(store.queue.shard_path("w9")) as shard:
            shard.cell_finish("late", "L", METRICS, attempts=1, worker="w9",
                              wall_time_s=0.01)
        store.close()

    def test_a_local_campaign_never_makes_the_queue_directories(self, tmp_path):
        store = CampaignStore(tmp_path, resume=False, owner="t")
        finish(store, METRICS)
        store.close()
        assert not (tmp_path / "distrib").exists()


def test_put_if_absent_first_writer_wins(tmp_path):
    a, b = ResultCache(tmp_path), ResultCache(tmp_path)
    assert a.put_if_absent("cell", {"makespan_ms": 1.0}) is True
    assert b.put_if_absent("cell", {"makespan_ms": 2.0}) is False
    assert b.get("cell") == {"makespan_ms": 1.0}
