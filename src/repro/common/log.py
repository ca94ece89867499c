"""Logging setup.

The emulator's hot loops never format log strings unless the level is
enabled; modules obtain loggers through :func:`get_logger` so the whole
framework lives under the ``repro`` logger namespace and can be silenced or
redirected by embedding applications with one call.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"
_configured = False


def _ensure_configured() -> None:
    global _configured
    if _configured:
        return
    root = logging.getLogger(_ROOT_NAME)
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        root.addHandler(handler)
    root.setLevel(logging.WARNING)
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """A logger under the framework namespace, e.g. ``repro.runtime.wm``."""
    _ensure_configured()
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
