"""The spine-only stubs answer as a tree with one, pure, core.

``benchmarks/spine/`` still calls ``repro.core.selected_core`` /
``core_info`` / ``make_engine`` / ``native_kernels`` and
``repro._native.available``; nothing under ``src/`` does, and this is the
one test that imports them (``tests/test_gate.py`` keeps it so).  The
answers pinned here are what the spine's probes and result documents read.
"""

from __future__ import annotations

from repro import _native, core
from repro.sim.engine import Engine


def test_core_info_pure():
    assert core.selected_core() == "pure"
    assert core.core_info() == {"variant": "pure"}


def test_there_is_one_engine_whatever_the_core():
    engine = core.make_engine()
    assert type(engine) is Engine
    assert engine is not core.make_engine()


def test_there_are_no_compiled_kernels():
    assert core.native_kernels() is None
    assert _native.available() is False
