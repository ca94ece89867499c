"""Small id/naming helpers used across the runtime."""

from __future__ import annotations

import itertools
from collections.abc import Iterator


class IdAllocator:
    """Monotonically increasing integer ids, optionally namespaced.

    The runtime labels every task instance, application instance, and PE
    with a dense integer id; dense ids let the stats module use arrays
    instead of dicts on the hot path.
    """

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        """Return the next id."""
        value = self._next
        self._next += 1
        return value

    def peek(self) -> int:
        """The id the next :meth:`allocate` call would return."""
        return self._next


def monotonic_names(prefix: str) -> Iterator[str]:
    """Yield ``prefix0, prefix1, ...`` forever.

    >>> names = monotonic_names("core")
    >>> next(names), next(names)
    ('core0', 'core1')
    """
    return (f"{prefix}{i}" for i in itertools.count())
