"""Import gate: what a run, a sweep, a fleet worker and the sweep server load.

``networkx`` (~14 MB of RSS, ~115 ms of start-up) serves ``to_networkx()``
and the cyclic-graph error message only; ``scipy`` serves nothing.  Neither
may ride in on the import path of a process that emulates.  The check needs
an interpreter that has imported nothing else, so it runs in a child.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = textwrap.dedent(
    """
    import sys

    import repro.cli
    import repro.dse.distrib.net.server
    import repro.dse.distrib.worker
    import repro.dse.runner
    from repro.dse import SweepCell, validation_sweep

    cell = SweepCell(config="2C+1F", policy="frfs", backend="virtual",
                     workload=validation_sweep({"wifi_tx": 1}))
    metrics = repro.dse.runner.execute_cell(cell.to_dict())
    assert metrics["apps_completed"] == 1, metrics

    loaded = sorted({name.split(".")[0] for name in sys.modules}
                    & {"networkx", "scipy"})
    assert not loaded, f"loaded on the run/sweep import path: {loaded}"

    from repro.apps import default_applications

    graph = default_applications()["wifi_tx"]
    exported = graph.to_networkx()

    import networkx as nx

    assert type(exported) is nx.DiGraph, type(exported)
    assert list(exported.nodes) == list(graph.nodes)
    assert set(exported.edges) == {
        (name, succ) for name, node in graph.nodes.items()
        for succ in node.successors
    }
    assert exported.graph == {"app_name": "wifi_tx"}
    print("import-gate-ok")
    """
)


def test_emulating_processes_do_not_load_networkx_or_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "import-gate-ok"
