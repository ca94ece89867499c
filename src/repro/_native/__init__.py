"""What remains of the optional compiled kernel: nothing to load.

Every policy is plain Python, so there is no extension to build or
import.  :func:`available` is kept only because the measurement spine
still calls it (``benchmarks/spine/probes.py`` l. 257, to decide whether
to probe a second core); ROADMAP item 3, the ``[benchmark]`` change that
stops the spine reaching into ``repro.core`` and ``repro._native``,
retires this module.
"""

from __future__ import annotations


def available() -> bool:
    """Always False: there is no compiled kernel."""
    return False
