"""Loader for the optional compiled placement kernels.

The extension (``repro._native._coreext``) is built from ``_coreext.c``
either by ``python -m repro._native.build`` (in-place, gcc) or by the
optional setuptools hook in ``setup.py``.  Import failures are captured,
not raised: the package must keep working from a source checkout with no
compiler, so a missing extension selects the pure loops, and only pinning
the compiled core (``repro.core.forced``) makes it an error — see
:mod:`repro.core`.  An extension built for another :data:`API` (an
in-place ``.so`` left over from an older checkout) counts as missing.
"""

from __future__ import annotations

from types import ModuleType

#: what ``BUILD_INFO["api"]`` in ``_coreext.c`` must say; bumped together
#: with it whenever a kernel's signature or meaning changes
API = 2

_module: ModuleType | None = None
_error: str | None = None
_attempted = False


def load() -> ModuleType | None:
    """The compiled extension module, or None if it cannot be imported."""
    global _module, _error, _attempted
    if not _attempted:
        _attempted = True
        try:
            from repro._native import _coreext  # type: ignore[attr-defined]
        except ImportError as exc:  # pragma: no cover - env-dependent
            _module = None
            _error = str(exc)
        else:
            built_for = _coreext.BUILD_INFO.get("api")
            if built_for == API:
                _module, _error = _coreext, None
            else:  # a stale build must never be called
                _module = None
                _error = (
                    f"built for api {built_for}, this checkout needs {API}; "
                    "re-run `python -m repro._native.build`"
                )
    return _module


def available() -> bool:
    return load() is not None


def import_error() -> str | None:
    """Why the extension is unusable (the ImportError, or an :data:`API`
    mismatch), or None when loaded."""
    load()
    return _error


def build_info() -> dict | None:
    """Toolchain metadata baked into the extension, or None."""
    mod = load()
    if mod is None:
        return None
    return dict(mod.BUILD_INFO)


def reset_for_tests() -> None:
    """Forget the cached import attempt (test hook)."""
    global _module, _error, _attempted
    _module = None
    _error = None
    _attempted = False
