"""The one core, as the measurement spine still asks about it.

The emulator is pure Python: one event engine (:mod:`repro.sim.engine`),
one ready list and plain-Python policies.  Nothing under ``src/`` reads
this module.  Its four functions answer the calls that
``benchmarks/spine/`` still makes, with the values a pure-only tree has;
ROADMAP item 3, the ``[benchmark]`` change that stops the spine reaching
into ``repro.core`` and ``repro._native``, retires it.
"""

from __future__ import annotations


def selected_core() -> str:
    """``"pure"``.  Read by ``benchmarks/spine/cli.py`` l. 72 (the result
    header) and ``probes.py`` l. 267 (unreached: ``_native.available()``
    is False)."""
    return "pure"


def core_info() -> dict:
    """``{"variant": "pure"}``.  Read by ``benchmarks/spine/cli.py``
    l. 112, the ``core`` field of a result document's provenance."""
    return {"variant": "pure"}


def make_engine():
    """``Engine()``.  Read by ``benchmarks/spine/probes.py`` ll. 120 /
    144 / 157."""
    from repro.sim.engine import Engine

    return Engine()


def native_kernels():
    """None: no compiled kernels.  Read by ``benchmarks/spine/probes.py``
    l. 203, which then builds the Python ``ReadyList``."""
    return None
