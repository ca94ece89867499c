"""Which core variant runs: the pure loops or the compiled kernels.

The emulator is pure Python: one event engine (:mod:`repro.sim.engine`),
one ready list, plain-Python policies.  Two placement loops — EFT's (shared
by ``heft``, its alias ``cprank``, and ``eft+edf``) and MET's — also exist
as C kernels in the optional extension ``repro._native._coreext`` (built
with ``python -m repro._native.build``), bit-identical by contract.
"Compiled" means "use those kernels".

There is one rule: the compiled kernels run exactly when the extension
imports (:func:`repro._native.available`).  Nothing is configured, so
sweep workers, pool children and the coordinator of the same checkout all
answer alike.  :func:`forced` pins a variant inside a ``with`` block: the
pure loops stay reachable as the reference the cross-core tests compare
against.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro import _native
from repro.common.errors import ReproError

CORE_PURE = "pure"
CORE_COMPILED = "compiled"

#: the variant pinned by an enclosing :func:`forced` block, else None
_forced: str | None = None


def _unavailable_message() -> str:
    err = _native.import_error()
    hint = (
        "build it with `python -m repro._native.build` "
        "(or `pip install -e .` with a C compiler available)"
    )
    detail = f": {err}" if err else ""
    return f"compiled core extension is not importable{detail}; {hint}"


def selected_core() -> str:
    """The active core variant: ``"pure"`` or ``"compiled"``."""
    if _forced is not None:
        return _forced
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
    """Pin a core variant for the block; the previous one returns on exit.

    ``"compiled"`` with no importable extension raises :class:`ReproError`.
    """
    global _forced
    if choice not in (CORE_PURE, CORE_COMPILED):
        raise ReproError(
            f"unknown core {choice!r}; expected {CORE_PURE} or {CORE_COMPILED}"
        )
    if choice == CORE_COMPILED and not _native.available():
        raise ReproError(f"cannot pin the compiled core: {_unavailable_message()}")
    prev, _forced = _forced, choice
    try:
        yield
    finally:
        _forced = prev
