"""Chaos harness for the network sweep transport.

:class:`ChaosProxy` sits between a :class:`NetTransport` client and a
``sweep-server``, forwarding length-prefixed frames while injecting the
failure modes the transport claims to survive:

* **connection resets** — the proxy drops both sides of a connection
  mid-conversation (the client sees ``ECONNRESET``/EOF and must retry on
  a fresh connection);
* **byte-level truncation** — a reply frame is cut mid-payload before
  the connection dies (exercises the ``TruncatedFrame`` path: the
  request may or may not have been processed server-side, so only
  idempotent retry is safe);
* **delayed replies** — a reply is held long enough for the client's
  per-attempt timeout to fire, so the ACK arrives *after* the client
  has already retried (exercises rid-matching: the stale reply must be
  discarded, not mistaken for the retry's answer);
* **duplicated replies** — a reply frame is delivered twice (same
  desynchronization hazard from the other direction).

All injection decisions come from one seeded RNG drawn in frame order
per connection, so a given (seed, traffic) pair is reproducible enough
to debug.  Injection counts are tallied in :attr:`ChaosProxy.events` so
tests can assert the chaos actually happened.

The module also carries subprocess helpers for spawning a real
``sweep-server`` (and SIGKILLing it) used by the restart/equivalence
tests and the CI ``chaos-net-smoke`` job.
"""

from __future__ import annotations

import collections
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

_LEN = struct.Struct(">I")


class ChaosProxy:
    """A frame-aware TCP proxy that injects failures on the reply path."""

    def __init__(
        self,
        upstream: tuple[str, int],
        *,
        seed: int = 0,
        p_reset: float = 0.0,
        p_truncate: float = 0.0,
        p_delay: float = 0.0,
        p_duplicate: float = 0.0,
        delay_s: float = 0.3,
    ) -> None:
        self.upstream = upstream
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self.p_reset = p_reset
        self.p_truncate = p_truncate
        self.p_delay = p_delay
        self.p_duplicate = p_duplicate
        self.delay_s = delay_s
        self.events: collections.Counter[str] = collections.Counter()
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        self.port: int = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        self._accept_thread.join(timeout=2)
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> ChaosProxy:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- plumbing ------------------------------------------------------------------

    def _draw(self) -> str:
        """One injection decision, in deterministic draw order."""
        with self._rng_lock:
            r = self._rng.random()
        if r < self.p_reset:
            return "reset"
        r -= self.p_reset
        if r < self.p_truncate:
            return "truncate"
        r -= self.p_truncate
        if r < self.p_delay:
            return "delay"
        r -= self.p_delay
        if r < self.p_duplicate:
            return "duplicate"
        return "pass"

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(client,),
                name="chaos-conn", daemon=True,
            ).start()

    def _handle(self, client: socket.socket) -> None:
        try:
            up = socket.create_connection(self.upstream, timeout=5)
        except OSError:
            client.close()
            return
        dead = threading.Event()

        def kill_both() -> None:
            dead.set()
            for sock in (client, up):
                try:
                    # RST rather than FIN: an abrupt reset is the harsher
                    # failure, and what a crashed middlebox produces.
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

        def pump_requests() -> None:
            try:
                while not dead.is_set():
                    data = client.recv(1 << 16)
                    if not data:
                        break
                    up.sendall(data)
            except OSError:
                pass
            kill_both()

        def pump_replies() -> None:
            buf = bytearray()
            try:
                while not dead.is_set():
                    data = up.recv(1 << 16)
                    if not data:
                        break
                    buf.extend(data)
                    while len(buf) >= _LEN.size:
                        (length,) = _LEN.unpack(bytes(buf[: _LEN.size]))
                        end = _LEN.size + length
                        if len(buf) < end:
                            break
                        frame = bytes(buf[:end])
                        del buf[:end]
                        action = self._draw()
                        self.events[action] += 1
                        if action == "reset":
                            kill_both()
                            return
                        if action == "truncate":
                            client.sendall(frame[: max(5, len(frame) // 2)])
                            kill_both()
                            return
                        if action == "delay":
                            time.sleep(self.delay_s)
                            client.sendall(frame)
                            continue
                        if action == "duplicate":
                            client.sendall(frame + frame)
                            continue
                        client.sendall(frame)
            except OSError:
                pass
            kill_both()

        threading.Thread(
            target=pump_requests, name="chaos-req", daemon=True
        ).start()
        pump_replies()


# -- sweep-server subprocess helpers -----------------------------------------------


def _cli_env() -> dict[str, str]:
    import repro

    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
    )
    return env


def spawn_server(
    out_dir: Path, *, host: str = "127.0.0.1", port: int = 0,
    lease_ttl_s: float | None = None,
) -> tuple[subprocess.Popen, str, int]:
    """Start ``sweep-server`` and block until it announces its endpoint."""
    cmd = [
        sys.executable, "-m", "repro.cli", "sweep-server",
        "--out", str(out_dir), "--host", host, "--port", str(port),
    ]
    if lease_ttl_s is not None:
        cmd += ["--lease-ttl", str(lease_ttl_s)]
    proc = subprocess.Popen(
        cmd, env=_cli_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise RuntimeError("sweep-server exited before announcing endpoint")
    doc = json.loads(line)
    return proc, doc["host"], int(doc["port"])


def sigkill_server(proc: subprocess.Popen) -> None:
    """The real thing: no cleanup handler runs, no endpoint file removed."""
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)
