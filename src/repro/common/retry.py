"""Bounded retry with exponential backoff and full jitter.

One retry policy serves every transient-failure site in the framework:
the network transport's client calls (connection resets, timeouts), the
shared result cache's writes and the journal's shard appends (NFS
hiccups such as ``EINTR``/``ESTALE``/``EAGAIN``).  Centralizing it keeps
the failure behavior auditable — the same bounded attempt count, the
same capped exponential backoff, the same full-jitter draw — instead of
ad-hoc ``time.sleep`` loops with different constants at every call site.

The jitter scheme is "full jitter" (AWS architecture blog): each delay
is drawn uniformly from ``[0, min(cap, base * 2**attempt)]``.  Compared
to equal or decorrelated jitter it minimizes synchronized retry storms
when a whole worker fleet loses the same server at the same moment.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: ``errno`` values treated as transient filesystem/network hiccups: an
#: interrupted syscall, a stale NFS handle (server rebooted or re-exported
#: mid-operation), and a would-block/temporary-resource failure.  A single
#: occurrence of any of these must not fail a whole sweep cell.
TRANSIENT_ERRNOS = frozenset({
    errno.EINTR,
    errno.ESTALE,
    errno.EAGAIN,
})


def is_transient_oserror(exc: BaseException) -> bool:
    """Is this an :class:`OSError` worth retrying (see TRANSIENT_ERRNOS)?"""
    return isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry: ``attempts`` tries, exponential backoff, full jitter.

    ``deadline_s`` is a per-*call* wall-clock budget: once it is spent no
    further attempt starts (the attempt bound still applies).  ``rng`` is
    injectable for deterministic tests; ``sleep`` for no-sleep tests.
    """

    attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")

    def backoff_caps(self) -> Iterator[float]:
        """The deterministic upper envelope of each retry's delay."""
        for attempt in range(self.attempts - 1):
            yield min(self.max_delay_s, self.base_delay_s * (2.0 ** attempt))

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """Full-jitter delays, one per retry (``attempts - 1`` of them)."""
        rng = rng or random
        for cap in self.backoff_caps():
            yield rng.uniform(0.0, cap)

    def call(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: Callable[[BaseException], bool] = is_transient_oserror,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> Any:
        """Run ``fn`` until it succeeds or the retry budget is spent.

        Exceptions ``retry_on`` rejects propagate immediately; once the
        attempt count or the deadline is exhausted the last retryable
        error is re-raised (not wrapped — callers keep their except
        clauses).  ``on_retry(attempt_number, exc)`` observes each retry.
        """
        deadline = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None
            else None
        )
        delays = self.delays(rng)
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except BaseException as exc:  # noqa: BLE001 — filtered below
                if not retry_on(exc) or attempt >= self.attempts:
                    raise
                delay = next(delays, 0.0)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise
                    delay = min(delay, remaining)
                if on_retry is not None:
                    on_retry(attempt, exc)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


#: Default policy for filesystem writes that may hit NFS hiccups: quick,
#: bounded, sub-second total worst case.
FS_RETRY = RetryPolicy(attempts=4, base_delay_s=0.02, max_delay_s=0.25)


@dataclass
class RetryStats:
    """Optional shared counter for surfacing retry activity in status."""

    retries: int = 0
    last_error: str = ""
    _by_site: dict[str, int] = field(default_factory=dict)

    def note(self, site: str, exc: BaseException) -> None:
        self.retries += 1
        self.last_error = f"{type(exc).__name__}: {exc}"
        self._by_site[site] = self._by_site.get(site, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "retries": self.retries,
            "last_error": self.last_error,
            "by_site": dict(self._by_site),
        }
