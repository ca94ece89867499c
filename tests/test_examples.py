"""Smoke tests: every example script must run cleanly end to end."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None, capsys=None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "virtual-time backend" in out
    assert "output OK" in out
    assert "detected radar delay: 37" in out


def test_design_space_exploration(capsys):
    run_example("design_space_exploration.py", ["3"])
    out = capsys.readouterr().out
    assert "fastest configuration" in out
    assert "3C+0F" in out


def test_custom_application(capsys):
    run_example("custom_application.py")
    out = capsys.readouterr().out
    assert "occupied=True" in out
    assert "peak_bin=19" in out


def test_custom_scheduler(capsys):
    run_example("custom_scheduler.py")
    out = capsys.readouterr().out
    assert "longest_app_first" in out
    assert "frfs" in out


def test_fig10_passes(capsys):
    run_example("fig10_passes.py", ["1.71"])
    out = capsys.readouterr().out
    assert "passes" in out and "completions_per_pass" in out
    # the EFT cell of artifacts/fig10.txt: 4.27 s, 590.5 us
    assert "1.71  eft     7218   3326" in out
    assert "4.27" in out and "590.5" in out


def test_auto_conversion(capsys):
    run_example("auto_conversion.py")
    out = capsys.readouterr().out
    assert "dft" in out and "idft" in out
    assert "correct" in out
    assert "speedup" in out


def test_lookahead_frontier_sweep_spec_parses():
    # The committed sweep spec (source of artifacts/lookahead_sweep.txt)
    # must stay expandable: every policy known, every workload kind valid.
    import json

    from repro.dse import SweepGrid
    from repro.runtime.schedulers import available_policies

    spec = json.loads(
        (EXAMPLES / "sweeps" / "lookahead_frontier.json").read_text()
    )
    grid = SweepGrid.from_dict(spec)
    assert grid.size == len(grid.expand()) == 40
    known = set(available_policies())
    assert set(grid.policies) <= known
    assert {w["kind"] for w in grid.workloads} == {"validation", "arrivals"}
