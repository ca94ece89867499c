"""The campaign directory's layout, pinned from the outside.

Every name in a campaign directory is spelled in
:mod:`repro.dse.distrib.queue`; these tests hold what the campaigns
actually leave on disk, that ``sweep --status`` leaves a directory as it
found it, and that a server refuses a manifest it cannot read.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.dse import SweepGrid, run_campaign, validation_sweep
from repro.dse.distrib import DistribError, campaign_snapshot, write_manifest
from repro.dse.distrib.net import SweepServer
from repro.dse.maintenance import gc_campaign

#: two cells, the second of which fails every attempt (zcu102 has 3 CPUs)
GRID = SweepGrid(configs=("2C+1F", "4C+2F"), policies=("frfs",),
                 workloads=(validation_sweep({"wifi_tx": 1}),))
OK_CELL, BAD_CELL = (cell.cell_id for cell in GRID.expand())


def tree(root: Path, *, dirs: bool = True) -> list[str]:
    """Sorted relative paths under ``root``, cell and worker ids replaced."""
    names = {OK_CELL: "<ok-cell>", BAD_CELL: "<bad-cell>",
             "w0-embedded": "<worker>"}
    out = []
    for path in root.rglob("*"):
        if path.is_dir() and not dirs:
            continue
        rel = path.relative_to(root).as_posix() + ("/" if path.is_dir() else "")
        for raw, shown in names.items():
            rel = rel.replace(raw, shown)
        out.append(rel)
    return sorted(out)


class TestLayoutPinned:
    def test_directory_fleet(self, tmp_path):
        campaign = run_campaign(GRID, out_dir=tmp_path, workers=0, poll_s=0.05)
        assert [row["status"] for row in campaign.rows()] == ["ok", "error"]
        assert tree(tmp_path, dirs=False) == [
            "cache/<ok-cell>.json",
            "distrib/STOP",
            "distrib/failed/<bad-cell>.json",
            "distrib/journals/<worker>.jsonl",
            "distrib/manifest.json",
            "distrib/merge_state.json",
            "distrib/workers/<worker>.json",
            "journal.jsonl",
            "journal.jsonl.idx",
            "results.json",
        ]

    def test_server_campaign(self, tmp_path):
        server = SweepServer(tmp_path / "srv")
        host, port = server.bind()
        stop = threading.Event()
        thread = threading.Thread(
            target=server.serve, kwargs={"stop": stop, "poll_s": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            run_campaign(GRID, out_dir=tmp_path / "camp",
                         server=f"{host}:{port}", workers=0, poll_s=0.05)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # the server owns the durable state; its endpoint record goes at exit
        assert tree(tmp_path / "srv", dirs=False) == [
            "cache/<ok-cell>.json",
            "distrib/STOP",
            "distrib/failed/<bad-cell>.json",
            "distrib/manifest.json",
            "distrib/workers/<worker>.json",
            "journal.jsonl",
            "journal.jsonl.idx",
        ]
        # the coordinator's directory holds the rows and the result spools
        assert tree(tmp_path / "camp") == [
            "coordinator-spool/", "results.json", "spool-embedded/",
        ]


class TestStatusWritesNothing:
    def test_manifest_only_directory(self, tmp_path):
        write_manifest(tmp_path, GRID.expand(), grid_id="g", max_attempts=1,
                       timeout_s=None, lease_ttl_s=5.0)
        before = tree(tmp_path)
        snap = campaign_snapshot(tmp_path)
        assert snap["cells"] == 2 and snap["resolved"] == 0
        assert tree(tmp_path) == before == ["distrib/", "distrib/manifest.json"]

    def test_finished_campaign(self, tmp_path):
        run_campaign(GRID, out_dir=tmp_path, workers=0, poll_s=0.05)
        before = tree(tmp_path)
        assert campaign_snapshot(tmp_path)["resolved"] == 2
        assert tree(tmp_path) == before


class TestServerManifest:
    def test_no_manifest_is_no_campaign_yet(self, tmp_path):
        server = SweepServer(tmp_path)
        try:
            assert server.manifest is None
            assert server.handle({"op": "hello", "proto": 1})["ready"] is False
        finally:
            server.close()

    def test_foreign_manifest_version_is_refused(self, tmp_path):
        write_manifest(tmp_path, GRID.expand(), grid_id="g", max_attempts=1,
                       timeout_s=None, lease_ttl_s=5.0)
        path = tmp_path / "distrib" / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "version": 99}))
        with pytest.raises(DistribError, match="version 99"):
            SweepServer(tmp_path)


def test_gc_removes_lease_debris(tmp_path):
    run_campaign(GRID, out_dir=tmp_path, workers=0, poll_s=0.05)
    leases = tmp_path / "distrib" / "leases"
    (leases / ".claim.c.w1.7.1").write_text("{}")
    (leases / ".stale.c.w1.7.2").write_text("{}")
    assert gc_campaign(tmp_path)["distrib"]["lease_debris"] == 2
    assert list(leases.iterdir()) == []
