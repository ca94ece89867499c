"""Network transport for distributed sweep campaigns (no shared mount).

The directory protocol (:class:`~repro.dse.distrib.transport.FsTransport`)
assumes every participant mounts the same filesystem.  This package removes that
assumption: a dependency-free TCP queue server
(``dssoc-emulate sweep-server``) owns the campaign state — manifest,
leases, result submission, heartbeats — and workers/coordinators speak
length-prefixed JSON frames to it over stdlib sockets:

* :mod:`repro.dse.distrib.net.framing` — the wire format (4-byte
  big-endian length prefix + one JSON object) and its failure taxonomy
  (clean close vs truncated frame vs oversized frame);
* :mod:`repro.dse.distrib.net.server` — :class:`SweepServer`: a
  single-threaded ``selectors`` event loop around a pure request
  handler; all campaign state persists through the existing journal /
  cache / failure-record machinery, so a SIGKILL'd server restarts and
  resumes with no lost or duplicated cells;
* :mod:`repro.dse.distrib.net.client` — :class:`NetTransport`: the
  socket-side implementation of the worker/coordinator transport
  interface, with bounded retry (exponential backoff + full jitter),
  per-call deadlines, reconnect-on-failure, and idempotency tokens on
  claims and submissions;
* :mod:`repro.dse.distrib.net.spool` — a worker-local result spool so a
  worker that loses the server finishes its in-flight cell, persists
  the result locally, and re-submits on reconnect.

See ``docs/distributed.md`` ("Network transport") for the wire
protocol, the idempotency rules, and the expanded failure matrix.
"""

from repro.dse.distrib.net.client import NetTransport, parse_endpoint
from repro.dse.distrib.net.framing import (
    ConnectionClosed,
    FrameError,
    FrameTooLarge,
    TruncatedFrame,
    recv_frame,
    send_frame,
)
from repro.dse.distrib.net.server import SweepServer
from repro.dse.distrib.net.spool import ResultSpool

__all__ = [
    "ConnectionClosed",
    "FrameError",
    "FrameTooLarge",
    "NetTransport",
    "ResultSpool",
    "SweepServer",
    "TruncatedFrame",
    "parse_endpoint",
    "recv_frame",
    "send_frame",
]
