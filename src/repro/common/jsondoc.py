"""Shape checks for the JSON spec documents (fault plans, QoS plans).

Each reader raises the caller's named error with a message that names the
field, so a malformed file ends in one ``error:`` line, not a traceback.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable


def section(value, what: str, keys: Iterable[str] | None,
            error: type[Exception]) -> dict:
    """``value`` as a JSON object whose keys all come from ``keys`` (any
    key when ``keys`` is None)."""
    if not isinstance(value, dict):
        raise error(f"{what} must be an object, got {type(value).__name__}")
    if keys is not None:
        unknown = set(value) - set(keys)
        if unknown:
            raise error(f"unknown {what} keys: {sorted(unknown)}")
    return value


def number(value, cast: Callable, what: str, error: type[Exception]):
    """``cast(value)`` (``int`` or ``float``), or ``error`` naming ``what``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise error(f"{what} must be {kind}, got {value!r}") from None
