"""Length-prefixed JSON frames over a stream socket.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON encoding one object.  The format is
deliberately minimal — no magic, no versioning in the framing layer
(protocol versions live in the ``hello`` exchange) — but the *reader* is
strict about failure taxonomy, because the retry layer above treats
these cases differently:

* :class:`ConnectionClosed` — EOF exactly on a frame boundary.  A peer
  that finished and closed; retrying on a fresh connection is safe.
* :class:`TruncatedFrame` — EOF mid-length or mid-payload.  The peer (or
  a middlebox) died mid-write; whatever request was in flight may or
  may not have been processed — callers must only retry requests that
  are idempotent (ours all are, by token).
* :class:`FrameTooLarge` — a length prefix beyond the sanity cap.  This
  is a desynchronized or hostile stream, never retried on the same
  connection.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

#: Sanity cap on a single frame.  Campaign manifests with thousands of
#: cells fit in well under a MiB; anything near this cap is stream
#: desynchronization, not data.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(OSError):
    """Base class for framing failures (an ``OSError`` so the retry
    machinery that guards socket calls catches framing failures too)."""


class ConnectionClosed(FrameError):
    """EOF on a frame boundary: the peer closed cleanly."""


class TruncatedFrame(FrameError):
    """EOF inside a frame: the peer vanished mid-write."""


class FrameTooLarge(FrameError):
    """Length prefix exceeds :data:`MAX_FRAME_BYTES`: desynchronized."""


def encode_frame(obj: Any) -> bytes:
    """One wire-ready frame for ``obj`` (length prefix included).

    Object keys travel in insertion order: cells cross the wire as dicts,
    and the order of a validation workload's ``apps`` is part of the cell.
    """
    payload = json.dumps(obj).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(payload)} bytes exceeds cap")
    return _LEN.pack(len(payload)) + payload


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Serialize ``obj`` and send it as one frame (blocking)."""
    sock.sendall(encode_frame(obj))


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == n:
                raise ConnectionClosed("peer closed the connection")
            raise TruncatedFrame(
                f"connection lost {n - remaining}/{n} bytes into a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame and decode its JSON body (blocking).

    Raises :class:`ConnectionClosed` on EOF at a frame boundary,
    :class:`TruncatedFrame` on EOF inside a frame, :class:`FrameError`
    on an undecodable body, and propagates socket timeouts.
    """
    header = _recv_exact(sock, _LEN.size, at_boundary=True)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"peer announced a {length}-byte frame")
    payload = _recv_exact(sock, length, at_boundary=False)
    try:
        return json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc


class FrameAssembler:
    """Incremental frame parser for non-blocking servers.

    Feed raw bytes as they arrive; completed frames pop out of
    :meth:`frames`.  The server uses this inside its ``selectors`` loop
    where a blocking :func:`recv_frame` would stall every other client.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def frames(self) -> list[Any]:
        """All complete frames currently buffered (may be empty)."""
        out: list[Any] = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (length,) = _LEN.unpack(bytes(self._buf[: _LEN.size]))
            if length > MAX_FRAME_BYTES:
                raise FrameTooLarge(f"peer announced a {length}-byte frame")
            end = _LEN.size + length
            if len(self._buf) < end:
                return out
            payload = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                out.append(json.loads(payload.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise FrameError(f"undecodable frame body: {exc}") from exc
