"""Dense integer ids used across the runtime."""

from __future__ import annotations


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
