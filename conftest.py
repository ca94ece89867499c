"""The gate's own plumbing, for every suite under this root (``tests/``,
``benchmarks/spine/tests``): which core ran (the compiled kernel exactly
when the extension imports) and a hang guard that is never inert."""

from __future__ import annotations

import faulthandler
import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:  # lets `python -m pytest` run without PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro import core as core_select  # noqa: E402

_hang_guard_key = pytest.StashKey[tuple]()


def _core_line() -> str:
    return f"repro core: {core_select.core_info()}"


def pytest_report_header(config):
    return _core_line()


def pytest_terminal_summary(terminalreporter):
    if not terminalreporter.showheader:  # -q hides the header; tier-1 runs -q
        terminalreporter.write_line(_core_line())


def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout",
            "per-test wall-clock ceiling in seconds (stdlib faulthandler "
            "fallback for pytest-timeout; 0 disables)",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.hasplugin("timeout"):
        return  # pytest-timeout owns the key and the guard
    seconds = float(config.getini("timeout") or 0)
    if seconds > 0:
        # Output capture is suspended while plugins configure, so fd 2 is
        # still the terminal: keep a copy for the dump to reach it later.
        config.stash[_hang_guard_key] = (seconds, os.dup(2))


def pytest_unconfigure(config):
    guard = config.stash.get(_hang_guard_key, None)
    if guard is not None:
        os.close(guard[1])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    guard = item.config.stash.get(_hang_guard_key, None)
    if guard is None:
        yield
        return
    seconds, stderr_fd = guard
    faulthandler.dump_traceback_later(seconds, exit=True, file=stderr_fd)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
