"""Tests for the distributed sweep service (leases, queue, workers, merge).

The invariants under test are the ones the subsystem exists to provide:
exactly-once cell execution across concurrent workers, single-winner
stale-lease re-issue, survival of SIGKILL of both a worker and the
coordinator, and bit-identical results (modulo worker attribution)
between the distributed and single-process paths.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dse import SweepGrid, run_campaign, validation_sweep
from repro.dse import journal as journal_mod
from repro.dse.distrib import (
    DistribError,
    LeaseDir,
    campaign_snapshot,
    merge_once,
    render_status,
    run_fleet,
    run_worker,
    status_line,
    write_manifest,
)
from repro.dse.distrib import queue as layout
from repro.dse.journal import Journal

TINY = validation_sweep({"wifi_tx": 1})


def tiny_grid(configs=("2C+1F", "3C+0F"), policies=("frfs", "met"),
              seeds=(None,)) -> SweepGrid:
    return SweepGrid(configs=configs, policies=policies, workloads=(TINY,),
                     seeds=seeds)


def publish(tmp_path: Path, cells, *, ttl=5.0, max_attempts=2,
            timeout_s=None) -> None:
    write_manifest(tmp_path, cells, grid_id="test", max_attempts=max_attempts,
                   timeout_s=timeout_s, lease_ttl_s=ttl)


def events_per_cell(path: Path, kinds) -> dict[str, int]:
    counts: dict[str, int] = {}
    for event in journal_mod.read_events(path):
        if event["event"] in kinds:
            cid = event["cell_id"]
            counts[cid] = counts.get(cid, 0) + 1
    return counts


def finishes_per_cell(path: Path) -> dict[str, int]:
    """Resolving events (finish or cache hit) per cell."""
    return events_per_cell(
        path, (journal_mod.EVENT_CELL_FINISH, journal_mod.EVENT_CELL_CACHED)
    )


def executions_per_cell(path: Path) -> dict[str, int]:
    """True executions only (``cell_finish``) per cell."""
    return events_per_cell(path, (journal_mod.EVENT_CELL_FINISH,))


class TestLeasePrimitive:
    def test_acquire_is_exclusive(self, tmp_path):
        wins = []
        barrier = threading.Barrier(8)

        def contend(i):
            leases = LeaseDir(tmp_path, owner=f"w{i}", ttl_s=30)
            barrier.wait()
            if leases.try_acquire("cell"):
                wins.append(i)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_release_is_owner_checked(self, tmp_path):
        a = LeaseDir(tmp_path, owner="a", ttl_s=30)
        b = LeaseDir(tmp_path, owner="b", ttl_s=30)
        assert a.try_acquire("cell")
        assert not b.release("cell")  # not the holder: refused
        assert a.holds("cell")
        assert a.release("cell")
        assert a.info("cell") is None

    def test_stale_break_has_one_winner(self, tmp_path):
        dead = LeaseDir(tmp_path, owner="dead", ttl_s=0.1)
        assert dead.try_acquire("cell")
        time.sleep(0.25)
        wins = []
        barrier = threading.Barrier(6)

        def contend(i):
            leases = LeaseDir(tmp_path, owner=f"w{i}", ttl_s=0.1)
            barrier.wait()
            if leases.break_stale("cell"):
                wins.append(i)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_clock_probe_is_private_to_a_thread(self, tmp_path):
        # the probe file was named by pid alone: of two threads sampling
        # the clock, one unlinked it before the other's stat
        from repro.dse.distrib.leases import lease_now

        errors = []

        def sample():
            try:
                for _ in range(300):
                    lease_now(tmp_path)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=sample, daemon=True)
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(tmp_path.iterdir()) == []

    def test_renewed_lease_is_not_stolen(self, tmp_path):
        a = LeaseDir(tmp_path, owner="a", ttl_s=0.3)
        b = LeaseDir(tmp_path, owner="b", ttl_s=0.3)
        assert a.try_acquire("cell")
        for _ in range(4):
            time.sleep(0.1)
            assert a.renew("cell")
        assert not b.acquire("cell")  # heartbeats kept it fresh
        assert a.holds("cell")

    def test_acquire_breaks_expired_holder(self, tmp_path):
        a = LeaseDir(tmp_path, owner="a", ttl_s=0.1)
        b = LeaseDir(tmp_path, owner="b", ttl_s=0.1)
        assert a.try_acquire("cell")
        time.sleep(0.25)
        assert b.acquire("cell")
        assert b.holds("cell")
        assert not a.holds("cell")
        assert not a.release("cell")  # lost the lease: cannot unseat b
        assert b.holds("cell")

    def test_sweep_debris(self, tmp_path):
        leases = LeaseDir(tmp_path, owner="a", ttl_s=1)
        (tmp_path / ".claim.x.a.1.1").write_text("{}")
        (tmp_path / ".stale.y.a.1.2").write_text("{}")
        assert leases.sweep_debris() == 2


class TestCampaignLayout:
    def test_manifest_roundtrip(self, tmp_path):
        cells = tiny_grid().expand()
        publish(tmp_path, cells)
        from repro.dse.distrib import load_manifest, manifest_cells

        manifest = load_manifest(tmp_path)
        assert [c.cell_id for c in manifest_cells(manifest).values()] == [
            c.cell_id for c in cells
        ]
        assert manifest["max_attempts"] == 2
        assert layout.shard_path(tmp_path, "w1").name == "w1.jsonl"

    def test_missing_manifest_raises(self, tmp_path):
        from repro.dse.distrib import load_manifest

        with pytest.raises(DistribError):
            load_manifest(tmp_path)

    def test_failure_records_reach_final(self, tmp_path):
        publish(tmp_path, tiny_grid().expand())
        first = layout.record_failure(tmp_path, "abc", "boom 1",
                                      max_attempts=2, worker="tester")
        assert first["attempts"] == 1 and not first["final"]
        second = layout.record_failure(tmp_path, "abc", "boom 2",
                                       max_attempts=2, worker="tester")
        assert second["attempts"] == 2 and second["final"]
        assert "abc" in layout.failed_final(tmp_path)
        layout.clear_failure(tmp_path, "abc")
        assert layout.failure(tmp_path, "abc") is None

    def test_stop_flag(self, tmp_path):
        publish(tmp_path, tiny_grid().expand())
        assert not layout.stop_requested(tmp_path)
        layout.request_stop(tmp_path)
        assert layout.stop_requested(tmp_path)
        layout.clear_stop(tmp_path)
        assert not layout.stop_requested(tmp_path)


class TestShardMerge:
    def test_duplicate_resolutions_merge_exactly_once(self, tmp_path):
        # Two shards both finish the same cell (a lease re-issue race):
        # the canonical journal must resolve it exactly once.
        publish(tmp_path, tiny_grid().expand())
        for worker, ms in (("a", 1.0), ("b", 1.0)):
            with Journal(layout.shard_path(tmp_path, worker)) as shard:
                shard.append(journal_mod.EVENT_CELL_START, cell_id="c1",
                             worker=worker, attempt=1)
                shard.append(journal_mod.EVENT_CELL_FINISH, cell_id="c1",
                             worker=worker, makespan_ms=ms, attempts=1)
        report = merge_once(tmp_path)
        assert report["completed"] == 1
        counts = finishes_per_cell(tmp_path / "journal.jsonl")
        assert counts == {"c1": 1}

    def test_merge_is_incremental_across_coordinators(self, tmp_path):
        publish(tmp_path, tiny_grid().expand())
        with Journal(layout.shard_path(tmp_path, "a")) as shard:
            shard.append(journal_mod.EVENT_CELL_FINISH, cell_id="c1",
                         worker="a", attempts=1)
        assert merge_once(tmp_path)["merged_events"] == 1
        # A second coordinator (fresh offsets file read) sees only new events.
        with Journal(layout.shard_path(tmp_path, "a"), resume=True) as shard:
            shard.append(journal_mod.EVENT_CELL_FINISH, cell_id="c2",
                         worker="a", attempts=1)
        assert merge_once(tmp_path)["merged_events"] == 1
        assert finishes_per_cell(tmp_path / "journal.jsonl") == {
            "c1": 1, "c2": 1,
        }

    def test_merged_events_carry_worker_attribution(self, tmp_path):
        publish(tmp_path, tiny_grid().expand())
        with Journal(layout.shard_path(tmp_path, "w7")) as shard:
            shard.append(journal_mod.EVENT_CELL_FINISH, cell_id="c1",
                         attempts=1)
        merge_once(tmp_path)
        events = journal_mod.read_events(tmp_path / "journal.jsonl")
        finish = [e for e in events
                  if e["event"] == journal_mod.EVENT_CELL_FINISH][0]
        assert finish["worker"] == "w7"  # defaulted from the shard name


class TestWorkerLoop:
    def test_single_worker_drains_queue(self, tmp_path):
        cells = tiny_grid().expand()
        publish(tmp_path, cells)
        summary = run_worker(tmp_path, worker_id="solo", poll_s=0.05)
        assert summary.stop_reason == "done"
        assert summary.executed == len(cells)
        counts = finishes_per_cell(
            tmp_path / "distrib" / "journals" / "solo.jsonl"
        )
        assert all(n == 1 for n in counts.values())
        assert len(counts) == len(cells)

    def test_last_status_is_the_exit_state_and_heartbeat_is_joined(
        self, tmp_path
    ):
        cells = tiny_grid(configs=("2C+1F",)).expand()
        publish(tmp_path, cells, ttl=0.15)  # a beat every 50 ms
        summary = run_worker(tmp_path, worker_id="solo", poll_s=0.05)
        assert summary.stop_reason == "done"
        # the worker's final beat is not raced or overwritten by its thread
        assert not [t for t in threading.enumerate()
                    if t.name == "heartbeat-solo"]
        assert layout.worker_statuses(tmp_path)["solo"]["state"] == "done"
        assert list((tmp_path / "distrib" / "workers").glob("*.tmp")) == []

    def test_two_concurrent_workers_execute_each_cell_once(self, tmp_path):
        cells = tiny_grid(seeds=(1, 2)).expand()  # 8 cells
        publish(tmp_path, cells)
        summaries = {}

        def work(name):
            summaries[name] = run_worker(tmp_path, worker_id=name,
                                         poll_s=0.05)

        threads = [threading.Thread(target=work, args=(n,))
                   for n in ("alpha", "beta")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(s.stop_reason == "done" for s in summaries.values())
        # Exactly-once execution: summed across both shards, each cell is
        # *executed* exactly once.  (A worker that finds a peer's result
        # may additionally journal a deduped cache-hit — that is a
        # resolution record, not a second execution.)
        totals: dict[str, int] = {}
        for shard in layout.shard_paths(tmp_path):
            for cid, n in executions_per_cell(shard).items():
                totals[cid] = totals.get(cid, 0) + n
        assert totals == {c.cell_id: 1 for c in cells}
        executed = sum(s.executed for s in summaries.values())
        assert executed == len(cells)  # no cell computed twice
        # And the canonical journal resolves each cell exactly once.
        merge_once(tmp_path)
        assert finishes_per_cell(tmp_path / "journal.jsonl") == {
            c.cell_id: 1 for c in cells
        }

    def test_stale_lease_reissued_and_executed_once(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        publish(tmp_path, cells, ttl=0.2)
        # A dead worker claimed the only cell and stopped heartbeating.
        dead = LeaseDir(tmp_path / "distrib" / "leases", owner="dead",
                        ttl_s=0.2)
        assert dead.try_acquire(cells[0].cell_id)
        summary = run_worker(tmp_path, worker_id="rescuer",
                             lease_ttl_s=0.2, poll_s=0.05)
        assert summary.stop_reason == "done"
        assert summary.executed == 1
        counts = finishes_per_cell(
            tmp_path / "distrib" / "journals" / "rescuer.jsonl"
        )
        assert counts == {cells[0].cell_id: 1}

    def test_worker_respects_stop_flag(self, tmp_path):
        cells = tiny_grid().expand()
        publish(tmp_path, cells)
        layout.request_stop(tmp_path)
        summary = run_worker(tmp_path, worker_id="stopped", poll_s=0.05)
        assert summary.stop_reason == "stop_requested"
        assert summary.executed == 0

    def test_worker_max_cells(self, tmp_path):
        cells = tiny_grid().expand()  # 4 cells
        publish(tmp_path, cells)
        summary = run_worker(tmp_path, worker_id="capped", poll_s=0.05,
                             max_cells=2)
        assert summary.stop_reason == "max_cells"
        assert summary.executed + summary.cached == 2

    def test_oneshot_exits_when_drained(self, tmp_path):
        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        publish(tmp_path, cells)
        run_worker(tmp_path, worker_id="first", poll_s=0.05)
        summary = run_worker(tmp_path, worker_id="second", poll_s=0.05,
                             oneshot=True)
        assert summary.stop_reason in ("done", "oneshot_drained")
        assert summary.executed == 0

    def test_failing_cells_reach_attempt_budget(self, tmp_path):
        bad = tiny_grid(policies=("no_such_policy",),
                        configs=("2C+1F",)).expand()
        publish(tmp_path, bad, max_attempts=2)
        summary = run_worker(tmp_path, worker_id="solo", poll_s=0.05)
        assert summary.stop_reason == "done"
        assert summary.failed == 1
        record = layout.failed_final(tmp_path)[bad[0].cell_id]
        assert record["attempts"] == 2
        assert "no_such_policy" in record["errors"][-1]


class TestDistributedCampaign:
    def test_resume_uses_cache_and_runs_nothing(self, tmp_path):
        grid = tiny_grid()
        first = run_campaign(grid, out_dir=tmp_path, workers=0, poll_s=0.05)
        assert first.summary()["executed"] == 4
        second = run_campaign(grid, out_dir=tmp_path, workers=0,
                              resume=True, poll_s=0.05)
        assert second.ok
        assert second.summary()["executed"] == 0
        assert second.summary()["cached"] == 4

    def test_failed_cells_fail_the_campaign(self, tmp_path):
        grid = tiny_grid(policies=("frfs", "no_such_policy"),
                         configs=("2C+1F",))
        campaign = run_campaign(grid, out_dir=tmp_path, workers=0,
                                poll_s=0.05, retries=0)
        assert not campaign.ok
        statuses = {r["status"] for r in campaign.rows()}
        assert statuses == {"ok", "error"}

    def test_mode_arguments_that_cannot_combine_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="--jobs.*--workers"):
            run_campaign(tiny_grid(), out_dir=tmp_path, jobs=2, workers=0)
        with pytest.raises(ValueError, match="--jobs.*--server"):
            run_campaign(tiny_grid(), out_dir=tmp_path, jobs=2,
                         server="127.0.0.1:1")
        with pytest.raises(ValueError, match="campaign directory"):
            run_campaign(tiny_grid(), workers=0)
        assert not list(tmp_path.iterdir())  # refused before any side effect

    def test_campaign_rows_carry_worker_attribution(self, tmp_path):
        campaign = run_campaign(tiny_grid(), out_dir=tmp_path,
                                workers=0, poll_s=0.05)
        for row in campaign.rows():
            assert row["worker"] == "w0-embedded"
            assert row["wall_time_s"] > 0


class FakeFleetTransport:
    """The coordinator-side calls ``run_fleet`` makes, scripted.

    ``script`` yields, per ``resolved_snapshot`` call, either a set of
    completed cell ids or an exception to raise; the last entry repeats.
    """

    def __init__(self, script, *, live_workers=0):
        self.script = list(script)
        self.live_workers = live_workers
        self.stopped = False

    def resolved_snapshot(self):
        step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(step, Exception):
            raise step
        return set(step), {}

    def fetch(self, cell_ids):
        return {cid: {"makespan_ms": 1.0} for cid in cell_ids}

    def status_snapshot(self):
        return {"workers": [{"worker": f"ext{i}", "health": "live"}
                            for i in range(self.live_workers)]}

    def request_stop(self):
        self.stopped = True


class ExitedProc:
    """A spawned worker that is already gone by the first poll."""

    def poll(self):
        return 0

    def wait(self, timeout=None):
        return 0


class TestFleetLiveness:
    """One rule through the one loop: no sockets, no subprocess, no time."""

    def run(self, transport, *, cells=None):
        from repro.dse.distrib.coordinator import WORKER_GRACE_S

        cells = cells or tiny_grid().expand()
        now = [0.0]
        reported = []
        pending = {c.cell_id: c for c in cells}

        def sleep(_dt):
            now[0] += WORKER_GRACE_S / 4  # a few polls span the grace window

        run_fleet(
            transport, pending, reported.append,
            workers=2, out_dir=Path("unused"), server=None,
            lease_ttl_s=1.0, poll_s=0.5,
            spawn=lambda *a, **kw: ExitedProc(),
            clock=lambda: now[0], sleep=sleep,
        )
        return reported

    def test_live_external_worker_keeps_the_campaign_going(self):
        # Every spawned process is gone and nothing is resolved yet, but
        # an attached worker is heartbeating: wait for it, through either
        # transport (the networked loop used to abort here).
        ids = [c.cell_id for c in tiny_grid().expand()]
        transport = FakeFleetTransport([set(), set(ids[:2]), set(ids)],
                                       live_workers=1)
        reported = self.run(transport)
        assert sorted(r.cell.cell_id for r in reported) == sorted(ids)
        assert all(r.ok and r.metrics for r in reported)
        assert transport.stopped

    def test_stranded_when_nobody_is_left(self):
        transport = FakeFleetTransport([set()])
        with pytest.raises(DistribError, match="4 cells unresolved"):
            self.run(transport)
        assert transport.stopped

    def test_work_finished_before_the_fleet_left_is_counted(self):
        # Workers exit "done" the moment the store has every cell; the
        # snapshot read after seeing them gone must settle the campaign.
        ids = [c.cell_id for c in tiny_grid().expand()]
        reported = self.run(FakeFleetTransport([set(ids)]))
        assert len(reported) == len(ids)

    def test_unreachable_store_gets_a_grace_window(self):
        ids = [c.cell_id for c in tiny_grid().expand()]
        down = DistribError("server restarting")
        # Back within the window: the campaign concludes.
        reported = self.run(FakeFleetTransport([down, down, set(ids)]))
        assert len(reported) == len(ids)
        # Never back: a named error, not a hang.
        with pytest.raises(DistribError, match="store is unreachable"):
            self.run(FakeFleetTransport([down]))


class TestStatus:
    def test_snapshot_of_finished_campaign(self, tmp_path):
        run_campaign(tiny_grid(), out_dir=tmp_path, workers=0, poll_s=0.05)
        snap = campaign_snapshot(tmp_path)
        assert snap["cells"] == 4
        assert snap["resolved"] == 4
        assert snap["failed"] == 0
        assert snap["in_flight"] == 0
        assert 0.0 <= snap["cache_hit_rate"] <= 1.0
        workers = {w["worker"] for w in snap["workers"]}
        assert "w0-embedded" in workers
        text = render_status(snap)
        assert "4/4 cells resolved" in text
        assert "STOP requested" not in text  # finished, not draining
        line = status_line(snap)
        assert line.startswith("[distrib] 4/4 cells")

    def test_cache_hit_rate_counts_a_cell_once_however_many_shards_name_it(
        self, tmp_path
    ):
        """Three directory workers that re-discover each other's results
        each journal ``cell_cached`` for the same cells; summing lines read
        6 hits over 2 resolved cells (300 %)."""
        cells = tiny_grid().expand()  # 4 cells
        publish(tmp_path, cells)
        hits = [(c.cell_id, c.label, {"wall_time_s": 0.01}) for c in cells[:2]]
        for worker in ("w0", "w1", "w2"):
            with journal_mod.Journal(layout.shard_path(tmp_path, worker)) as shard:
                shard.cells_cached(hits, worker=worker)
        snap = campaign_snapshot(tmp_path)
        assert snap["cells"] == 4 and snap["resolved"] == 2
        assert snap["cache_hit_rate"] == 1.0  # 2 distinct cached / 2 resolved
        # one more cell, executed: 2 of 3 resolved came from the cache
        with journal_mod.Journal(layout.shard_path(tmp_path, "w0"), resume=True) as shard:
            shard.cell_finish(cells[2].cell_id, cells[2].label,
                              {"makespan_ms": 1.0}, attempts=1, worker="w0",
                              wall_time_s=0.01)
        snap = campaign_snapshot(tmp_path)
        assert snap["resolved"] == 3
        assert snap["cache_hit_rate"] == round(2 / 3, 4)

    def test_snapshot_counts_unmerged_shards(self, tmp_path):
        cells = tiny_grid().expand()
        publish(tmp_path, cells)
        run_worker(tmp_path, worker_id="solo", poll_s=0.05)
        # No coordinator merge has happened: status must still see the work.
        snap = campaign_snapshot(tmp_path)
        assert snap["resolved"] == len(cells)


def _spawn_cli(args, cwd):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestKillMidFlight:
    def test_sigkilled_worker_cells_are_reissued(self, tmp_path):
        cells = tiny_grid(seeds=(1, 2)).expand()  # 8 cells
        publish(tmp_path, cells, ttl=0.5)
        proc = _spawn_cli(
            ["sweep-worker", "--out", str(tmp_path), "--worker-id", "victim",
             "--poll", "0.05"],
            cwd=tmp_path,
        )
        shard = tmp_path / "distrib" / "journals" / "victim.jsonl"
        try:
            # Let the victim start working, then kill it without warning.
            assert _wait_for(
                lambda: shard.exists() and shard.stat().st_size > 0
            ), "victim worker never started working"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=10)
        summary = run_worker(tmp_path, worker_id="rescuer",
                             lease_ttl_s=0.5, poll_s=0.05)
        assert summary.stop_reason == "done"
        # Every cell resolved, and the canonical journal (after merge)
        # resolves each exactly once regardless of the kill timing.
        merge_once(tmp_path)
        counts = finishes_per_cell(tmp_path / "journal.jsonl")
        assert counts == {c.cell_id: 1 for c in cells}

    def test_sigkilled_coordinator_resumes_cleanly(self, tmp_path):
        grid = tiny_grid(seeds=(1, 2))  # 8 cells
        cells = grid.expand()
        out = tmp_path / "camp"
        proc = _spawn_cli(
            ["sweep", "--configs", "2C+1F,3C+0F", "--policies", "frfs,met",
             "--apps", "wifi_tx=1", "--seeds", "1,2",
             "--workers", "1", "--poll", "0.05", "--lease-ttl", "1",
             "--out", str(out)],
            cwd=tmp_path,
        )
        cache_dir = out / "cache"
        try:
            # Kill the coordinator as soon as real work has landed.
            assert _wait_for(
                lambda: len(list(cache_dir.glob("*.json"))) >= 1
            ), "campaign never produced a result"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=10)
        # The orphaned worker keeps draining the queue; ask it to stop and
        # wait for it to let go of its leases.
        layout.request_stop(out)
        assert _wait_for(
            lambda: not list(layout.leases_dir(out).glob("*.lease")),
            timeout_s=60,
        ), "orphaned worker never released its leases"
        layout.clear_stop(out)

        campaign = run_campaign(grid, out_dir=out, workers=0, resume=True,
                                poll_s=0.05, lease_ttl_s=1)
        # Nothing lost: every cell resolves ok in the resumed campaign.
        assert campaign.ok
        assert len(campaign.rows()) == len(cells)
        assert all(r["status"] == "ok" for r in campaign.rows())
        assert journal_mod.replay(out / "journal.jsonl").completed == {
            c.cell_id for c in cells
        }
        # Nothing double-counted: across every worker's shard, each cell
        # was physically executed exactly once.  (The resumed run may add
        # its own cache-hit resolutions to the canonical journal — the
        # same thing single-process --resume does — but never a second
        # execution.)
        totals: dict[str, int] = {}
        for shard in (out / "distrib" / "journals").glob("*.jsonl"):
            for cid, n in executions_per_cell(shard).items():
                totals[cid] = totals.get(cid, 0) + n
        assert totals == {c.cell_id: 1 for c in cells}


class TestGCAndCLI:
    def test_gc_prunes_and_compacts(self, tmp_path):
        from repro.dse.cache import ResultCache
        from repro.dse.maintenance import gc_campaign

        grid = tiny_grid()
        run_campaign(grid, out_dir=tmp_path, workers=0, poll_s=0.05)
        run_campaign(grid, out_dir=tmp_path, workers=0, resume=True,
                     poll_s=0.05)
        cache = ResultCache(tmp_path / "cache")
        cache.put("f" * 16, {"makespan_ms": 1.0})  # orphan: not in campaign
        corrupt = cache.path_for("e" * 16)
        corrupt.write_text("not json", encoding="utf-8")
        stale_tmp = cache.root / "dead.json.123.tmp"
        stale_tmp.write_text("{}", encoding="utf-8")
        os.utime(stale_tmp, (1, 1))

        before = journal_mod.replay(tmp_path / "journal.jsonl")
        report = gc_campaign(tmp_path)
        assert report["cache"]["orphans_removed"] == 1
        assert report["cache"]["corrupt_removed"] == 1
        assert report["cache"]["tmp_removed"] == 1
        assert report["journal"]["events_after"] < report["journal"][
            "events_before"
        ]
        after = journal_mod.replay(tmp_path / "journal.jsonl")
        assert after.completed == before.completed
        assert after.incomplete == before.incomplete
        # Resume after GC still runs nothing: the compacted journal and
        # surviving cache entries carry the full campaign state.
        again = run_campaign(grid, out_dir=tmp_path, workers=0,
                             resume=True, poll_s=0.05)
        assert again.summary()["executed"] == 0

    def test_gc_collects_every_writers_stale_temps(self, tmp_path):
        from repro.dse.maintenance import TMP_GRACE_S, gc_campaign

        run_campaign(tiny_grid(configs=("2C+1F",)), out_dir=tmp_path,
                     workers=0, poll_s=0.05)
        spool = tmp_path / "spool-w1"
        spool.mkdir()
        planted = {
            "cache": tmp_path / "cache" / "aa.json.7.0.tmp",
            "journal": tmp_path / "journal.jsonl.idx.7.1.tmp",
            "manifest": tmp_path / "distrib" / "manifest.json.7.2.tmp",
            "merge": tmp_path / "distrib" / "merge_state.json.7.3.tmp",
            "worker": tmp_path / "distrib" / "workers" / "w1.json.7.4.tmp",
            "failed": tmp_path / "distrib" / "failed" / "aa.json.7.5.tmp",
            "spool": spool / "tok.json.7.6.tmp",
        }
        old = time.time() - TMP_GRACE_S - 60
        for path in planted.values():
            path.parent.mkdir(exist_ok=True)  # failed/: no cell failed
            path.write_text("{", encoding="utf-8")
            os.utime(path, (old, old))
        # a live writer's temp, younger than the grace period, in each place
        young = [path.with_name("live-" + path.name)
                 for path in planted.values()]
        for path in young:
            path.write_text("{", encoding="utf-8")

        report = gc_campaign(tmp_path)
        assert report["cache"]["tmp_removed"] == 1
        assert report["journal"]["tmp_removed"] == 1
        assert report["distrib"]["tmp_removed"] == 4
        assert report["spools"]["tmp_removed"] == 1
        assert not any(path.exists() for path in planted.values())
        assert all(path.exists() for path in young)
        # nothing but temps was touched: the campaign is still complete
        again = run_campaign(tiny_grid(configs=("2C+1F",)), out_dir=tmp_path,
                             workers=0, resume=True, poll_s=0.05)
        assert again.summary()["executed"] == 0

    def test_cli_status_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        grid_args = ["--configs", "2C+1F", "--policies", "frfs",
                     "--apps", "wifi_tx=1", "--out", str(tmp_path)]
        assert main(["sweep", *grid_args, "--workers", "0", "--json",
                     "--poll", "0.05"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--status", "--out", str(tmp_path),
                     "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["resolved"] == snap["cells"] == 1
        assert main(["sweep", "--gc", "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["out_dir"] == str(tmp_path)

    def test_cli_sweep_worker_oneshot(self, tmp_path, capsys):
        from repro.cli import main

        cells = tiny_grid(configs=("2C+1F",), policies=("frfs",)).expand()
        publish(tmp_path, cells)
        code = main(["sweep-worker", "--out", str(tmp_path), "--worker-id",
                     "cli", "--oneshot", "--poll", "0.05"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["worker"] == "cli"
        assert summary["executed"] == 1
