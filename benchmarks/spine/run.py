"""Launcher named by ``BENCHMARK.json``: ``python3 benchmarks/spine/run.py``.

Puts the checkout root (for ``benchmarks.spine``) and ``src/`` (for
``repro``) on ``sys.path`` so the command needs no environment; the same
command line is available as ``PYTHONPATH=src python -m benchmarks.spine``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(root), str(root / "src")]
    from benchmarks.spine.cli import main

    sys.exit(main())
