"""Runtime selection of the core variant (pure vs compiled).

The emulator is pure Python: one event engine (:mod:`repro.sim.engine`),
one ready list, plain-Python policies.  Two placement loops — EFT's (shared
by ``heft`` / ``cprank`` / ``eft+edf``) and MET's — also exist as C kernels
in the optional extension ``repro._native._coreext`` (built with
``python -m repro._native.build``), bit-identical by contract.  "Compiled"
means "use those kernels"; this module decides whether a process does.

Selection precedence:

1. An explicit programmatic/CLI choice (``set_core``/``--core``).
   Requesting ``compiled`` when the extension cannot be imported is an
   error — the user asked for something that does not exist.
2. The ``DSSOC_CORE`` environment variable (``pure``/``compiled``/
   ``auto``).  ``compiled`` without the extension falls back to pure
   with a single warning: env vars travel between machines, and a
   missing optional build should not break scripted runs.
3. ``auto`` (the default): compiled when importable, else pure, silently.

Sweep workers inherit the selection through ``DSSOC_CORE`` (the CLI
exports its ``--core`` choice into the environment before forking).
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

from repro import _native
from repro.common.errors import ReproError

CORE_PURE = "pure"
CORE_COMPILED = "compiled"
CORE_AUTO = "auto"
_CHOICES = (CORE_AUTO, CORE_PURE, CORE_COMPILED)

ENV_VAR = "DSSOC_CORE"

#: explicit programmatic selection; None defers to the environment
_forced: str | None = None
_warned_fallback = False


def _unavailable_message() -> str:
    err = _native.import_error()
    hint = (
        "build it with `python -m repro._native.build` "
        "(or `pip install -e .` with a C compiler available)"
    )
    detail = f": {err}" if err else ""
    return f"compiled core extension is not importable{detail}; {hint}"


def set_core(choice: str | None) -> str:
    """Select the core explicitly (CLI ``--core``); returns the variant.

    ``None`` or ``"auto"`` clears the explicit choice and re-resolves
    from the environment.  An explicit ``"compiled"`` with no importable
    extension raises :class:`ReproError` instead of falling back.
    """
    global _forced
    if choice is None:
        choice = CORE_AUTO
    if choice not in _CHOICES:
        raise ReproError(
            f"unknown core {choice!r}; expected one of {', '.join(_CHOICES)}"
        )
    if choice == CORE_COMPILED and not _native.available():
        raise ReproError(f"--core compiled requested but {_unavailable_message()}")
    _forced = None if choice == CORE_AUTO else choice
    return selected_core()


def selected_core() -> str:
    """The active core variant: ``"pure"`` or ``"compiled"``."""
    global _warned_fallback
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_VAR, CORE_AUTO).strip().lower() or CORE_AUTO
    if env not in _CHOICES:
        raise ReproError(
            f"invalid {ENV_VAR}={env!r}; expected one of {', '.join(_CHOICES)}"
        )
    if env == CORE_PURE:
        return CORE_PURE
    if env == CORE_COMPILED:
        if _native.available():
            return CORE_COMPILED
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                f"{ENV_VAR}=compiled but {_unavailable_message()}; "
                "falling back to the pure-Python core",
                RuntimeWarning,
                stacklevel=2,
            )
        return CORE_PURE
    # auto: use the extension when present, silently
    return CORE_COMPILED if _native.available() else CORE_PURE


def native_kernels():
    """The compiled kernel module when selected, else None.

    ``Scheduler.__init__`` binds this once per policy instance: a non-None
    return means ``eft_pass`` / ``met_pass`` run in C.
    """
    if selected_core() != CORE_COMPILED:
        return None
    kernels = _native.load()
    if not hasattr(kernels, "ReadyList"):
        # Only reader: benchmarks/spine/probes.py:203 (the ready list is
        # one Python class under both cores; ROADMAP has the follow-up).
        from repro.runtime.workload_manager import ReadyList

        kernels.ReadyList = ReadyList
    return kernels


def make_engine():
    """``Engine()``.  Only reader: benchmarks/spine/probes.py:120/144/157
    (there is one engine; ROADMAP has the follow-up that drops this)."""
    from repro.sim.engine import Engine

    return Engine()


def core_info() -> dict:
    """Provenance record for reports: variant + build metadata."""
    variant = selected_core()
    info: dict = {"variant": variant}
    if variant == CORE_COMPILED:
        info["build"] = _native.build_info()
    return info


@contextmanager
def forced(choice: str):
    """Temporarily force a core variant (test hook)."""
    global _forced
    prev = _forced
    set_core(choice)
    try:
        yield
    finally:
        _forced = prev


def reset_for_tests() -> None:
    """Clear explicit selection and the fallback-warning latch."""
    global _forced, _warned_fallback
    _forced = None
    _warned_fallback = False
