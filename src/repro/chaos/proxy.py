"""ChaosProxy: a stdlib TCP/HTTP proxy that injects wire-level faults.

Sits in front of one ``repro serve`` node and forwards each HTTP request to
the upstream, optionally mangling it on the way back::

    upstream = create_server(port=0, ...)
    with ChaosProxy(upstream_port=upstream.port, reset_p=0.1,
                    latency_s=0.05, latency_p=0.3, error_p=0.1,
                    error_status=429, seed=7) as proxy:
        client = ServiceClient(proxy.url)
        ...

Fault modes (independent seeded rolls, per request):

* **forced error** (``error_p``): answer a synthetic ``error_status``
  (429/503/...) JSON envelope without contacting the upstream — a 429
  carries a ``Retry-After`` header, exactly like the real backpressure path;
* **connection reset** (``reset_p``): an abortive close (``SO_LINGER`` 0 →
  TCP RST) before the upstream is contacted;
* **latency** (``latency_p``/``latency_s``): sleep before relaying the
  upstream's response;
* **truncation** (``truncate_p``): relay only half of the response bytes,
  then reset — the client sees a short body against the advertised
  ``Content-Length``.

Every fault is retryable by :class:`repro.service.client.ServiceClient`
(resets and truncations are network errors, forced 429/5xx are retryable
statuses), which is the point: a dispatch through a ChaosProxy must produce
byte-identical results to a fault-free run.  The proxy handles one request
per connection: every response it relays or fabricates carries
``Connection: close``, so a keep-alive client opens a fresh connection for
its next request and each injected reset or truncation lands on a fresh
connection, where the client counts and retries it.  It counts what it did
in :meth:`stats`.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from random import Random

from ..obs.metrics import get_metrics

__all__ = ["ChaosProxy"]

_PROXY_FAULTS = get_metrics().get("repro_chaos_proxy_faults_total")

#: Reason phrases for the synthetic error responses the proxy can fabricate.
_REASONS = {429: "Too Many Requests", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable"}


def _read_http_message(handle, initial_line: bytes | None = None) -> bytes | None:
    """Read one full HTTP message (request or response) from a file object.

    Returns the raw bytes (start line + headers + body), or ``None`` when
    the peer closed before a full header block arrived.  Bodies are framed
    by ``Content-Length`` (both the stdlib client and server always send
    one); a missing length on a response means read-until-close.
    """
    lines: list[bytes] = []
    length: int | None = None
    line = initial_line if initial_line is not None else handle.readline()
    if not line:
        return None
    while line not in (b"\r\n", b"\n", b""):
        lines.append(line)
        lowered = line.lower()
        if lowered.startswith(b"content-length:"):
            try:
                length = int(line.split(b":", 1)[1].strip())
            except ValueError:
                length = None
        line = handle.readline()
    if not lines:
        return None
    head = b"".join(lines) + b"\r\n"
    if length is None:
        # Requests without a length have no body; responses without one are
        # delimited by connection close.
        body = handle.read() if lines[0].startswith(b"HTTP/") else b""
    else:
        body = handle.read(length)
    return head + body


def _with_connection_close(response: bytes) -> bytes:
    """``response`` with its ``Connection`` header replaced by ``close``."""
    head, sep, body = response.partition(b"\r\n\r\n")
    lines = [
        line for line in head.split(b"\r\n")
        if not line.lower().startswith(b"connection:")
    ]
    return b"\r\n".join([*lines, b"Connection: close"]) + sep + body


class _ProxyHandler(socketserver.BaseRequestHandler):
    server: "_ProxyServer"

    def handle(self) -> None:  # noqa: D102 - socketserver API
        proxy = self.server.proxy
        client_file = self.request.makefile("rb")
        try:
            request_bytes = _read_http_message(client_file)
        finally:
            client_file.close()
        if request_bytes is None:
            return

        roll = proxy._roll
        if roll("error"):
            proxy._count("error")
            self.request.sendall(proxy._error_response())
            return
        if roll("reset"):
            proxy._count("reset")
            self._reset()
            return

        response = self._fetch_upstream(request_bytes)
        if response is None:
            # The upstream is gone; an abortive close tells the client the
            # same thing a dead node would.
            self._reset()
            return
        response = _with_connection_close(response)
        if roll("latency"):
            proxy._count("latency")
            time.sleep(proxy.latency_s)
        if roll("truncate"):
            proxy._count("truncate")
            self.request.sendall(response[: max(1, len(response) // 2)])
            self._reset()
            return
        proxy._count("forwarded")
        self.request.sendall(response)

    def _fetch_upstream(self, request_bytes: bytes) -> bytes | None:
        proxy = self.server.proxy
        try:
            with socket.create_connection(
                (proxy.upstream_host, proxy.upstream_port), timeout=proxy.timeout
            ) as upstream:
                upstream.sendall(request_bytes)
                upstream_file = upstream.makefile("rb")
                try:
                    return _read_http_message(upstream_file)
                finally:
                    upstream_file.close()
        except OSError:
            return None

    def _reset(self) -> None:
        """Abortive close: RST instead of FIN, like a crashed peer."""
        try:
            self.request.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            self.request.close()
        except OSError:
            pass


class _ProxyServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    proxy: "ChaosProxy"


class ChaosProxy:
    """A fault-injecting TCP proxy in front of one HTTP upstream."""

    def __init__(
        self,
        upstream_port: int,
        upstream_host: str = "127.0.0.1",
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        reset_p: float = 0.0,
        latency_s: float = 0.0,
        latency_p: float = 0.0,
        error_p: float = 0.0,
        error_status: int = 503,
        retry_after: float = 0.05,
        truncate_p: float = 0.0,
        timeout: float = 30.0,
        seed: int = 0,
    ):
        for name, p in (("reset_p", reset_p), ("latency_p", latency_p),
                        ("error_p", error_p), ("truncate_p", truncate_p)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.latency_s = latency_s
        self.error_status = error_status
        self.retry_after = retry_after
        self.timeout = timeout
        self._probabilities = {
            "reset": reset_p,
            "latency": latency_p if latency_s > 0 else 0.0,
            "error": error_p,
            "truncate": truncate_p,
        }
        self._rng = Random(seed)
        self._rng_lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._server = _ProxyServer((listen_host, listen_port), _ProxyHandler)
        self._server.proxy = self
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Fault rolls / bookkeeping
    # ------------------------------------------------------------------ #

    def _roll(self, kind: str) -> bool:
        p = self._probabilities[kind]
        if p <= 0.0:
            return False
        with self._rng_lock:
            return self._rng.random() < p

    def _count(self, kind: str) -> None:
        with self._rng_lock:
            self._counts[kind] = self._counts.get(kind, 0) + 1
        _PROXY_FAULTS.inc(kind=kind)

    def _error_response(self) -> bytes:
        status = self.error_status
        body = json.dumps(
            {"error": f"chaos proxy: injected HTTP {status}",
             "retry_after": self.retry_after}
        ).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Injected Error')}",
            "Content-Type: application/json; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if status == 429:
            headers.append(f"Retry-After: {max(1, round(self.retry_after))}")
        return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ChaosProxy":
        if self._thread is not None:
            raise RuntimeError("proxy already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="chaos-proxy", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def stats(self) -> dict:
        with self._rng_lock:
            counts = dict(self._counts)
        return {
            "upstream": f"{self.upstream_host}:{self.upstream_port}",
            "listen": self.url,
            "counts": counts,
        }

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
