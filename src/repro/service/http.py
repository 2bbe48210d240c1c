"""The one HTTP layer under the node and the gateway.

Both front ends (:mod:`repro.service.server` and :mod:`repro.gateway.server`)
are thin subclasses of :class:`HTTPHandler` and :class:`HTTPServerBase`.  Each
declares one route table of :class:`Route` rows — ``Route(method, pattern,
handler, doc)`` with patterns like ``/v1/jobs/<id>/result`` — and that table
is the single source of:

* dispatch: the matched row's handler runs, called with the path's
  ``<...>`` segments as positional arguments;
* the metric ``route`` label: the matched pattern, or ``unrouted`` when no
  row matches (so labels stay a closed set whatever paths clients send);
* the API surface (``V1_ROUTES`` / ``GATEWAY_ROUTES``, snapshotted in
  ``API_SURFACE.json``) and the route descriptions in ``docs/http-api.md``.

The base owns the envelope both servers guarantee: every outcome is a JSON
response or a deliberately closed connection.  Client errors raise
:class:`HTTPError`; a subclass maps its domain exceptions in
:meth:`HTTPHandler.error_response`; anything else is a last-resort 500.
Every POST body is drained before routing, so a keep-alive connection stays
usable even after a 404.  An unmatched method and path answers 404 ``no such
endpoint``.  Responses are strict JSON (no NaN), UTF-8 encoded.

Connections are persistent (HTTP/1.1 keep-alive).  Nagle's algorithm is off
on every accepted socket: a response leaves as a header write and a body
write, and on a persistent connection Nagle holds the body back until the
peer's delayed ACK for the headers, ~40 ms per response.  An idle connection
is closed after :attr:`HTTPServerBase.keepalive_timeout_s`, and
:meth:`HTTPServerBase.stop_listening` retires the open ones, so a server
that stopped listening stops answering on connections it already had.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..chaos.plan import maybe_fail
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics

__all__ = [
    "API_VERSION",
    "HTTPError",
    "HTTPHandler",
    "HTTPServerBase",
    "MAX_BODY_BYTES",
    "MAX_WAIT_SECONDS",
    "Route",
    "parse_json_body",
    "parse_non_negative_int",
    "parse_wait",
    "retry_after_header",
    "route_names",
]

#: Current (only) version of the HTTP API; the path prefix is ``/v1``.
API_VERSION = "v1"

#: Upper bound on ``?wait=`` so a client cannot pin a handler thread forever.
MAX_WAIT_SECONDS = 300.0

#: Upper bound on request bodies (a campaign spec is a few KiB; anything in
#: the tens of MiB is a mistake or abuse and must not balloon the heap).
MAX_BODY_BYTES = 16 * 1024 * 1024


class HTTPError(Exception):
    """A client error the handler turns into a JSON error response.

    ``close`` forces ``Connection: close``: raised when the request body
    could not be (fully) drained, so the keep-alive byte stream is no longer
    trustworthy for a next request.
    """

    def __init__(self, status: int, message: str, close: bool = False):
        super().__init__(message)
        self.status = status
        self.message = message
        self.close = close


@dataclass(frozen=True)
class Route:
    """One row of a route table: ``GET /v1/jobs/<id>`` -> ``handler``.

    ``handler`` is called as ``handler(request_handler, *path_params)``, one
    positional argument per ``<...>`` segment of ``pattern``; ``doc`` is the
    one-line description rendered into ``docs/http-api.md``.
    """

    method: str
    pattern: str
    handler: Callable[..., None]
    doc: str
    #: Pattern segments; ``None`` marks a ``<...>`` parameter.
    segments: tuple[str | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        segments = tuple(
            None if part.startswith("<") else part
            for part in self.pattern.split("/")
            if part
        )
        object.__setattr__(self, "segments", segments)

    @property
    def name(self) -> str:
        """``"METHOD /pattern"`` — the form the API surface snapshots."""
        return f"{self.method} {self.pattern}"

    def match(self, method: str, parts: list[str]) -> list[str] | None:
        """The path parameters if ``method`` + ``parts`` hit this row."""
        if method != self.method or len(parts) != len(self.segments):
            return None
        params = []
        for part, segment in zip(parts, self.segments, strict=True):
            if segment is None:
                params.append(part)
            elif part != segment:
                return None
        return params


def route_names(routes) -> tuple[str, ...]:
    """A route table's ``"METHOD /pattern"`` names, sorted."""
    return tuple(sorted(route.name for route in routes))


def retry_after_header(retry_after: float) -> dict[str, str]:
    """``Retry-After`` in whole seconds (the header grammar wants integers;
    the JSON body carries the precise float for clients that parse it)."""
    return {"Retry-After": str(max(1, math.ceil(retry_after)))}


def parse_json_body(raw: bytes) -> dict:
    """A request body that must be one JSON object; anything else is a 400."""
    if not raw:
        raise HTTPError(400, "empty request body; expected a JSON object")
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as error:
        raise HTTPError(400, f"invalid JSON body: {error}") from None
    if not isinstance(body, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return body


def parse_wait(query: dict) -> float | None:
    """``?wait=<seconds>`` clamped to ``[0, MAX_WAIT_SECONDS]``; bad values are a 400."""
    if "wait" not in query:
        return None
    try:
        wait_seconds = float(query["wait"][0])
    except (TypeError, ValueError):
        raise HTTPError(400, f'invalid "wait" value {query["wait"][0]!r}') from None
    if math.isnan(wait_seconds):
        raise HTTPError(400, '"wait" must not be NaN')
    return min(max(wait_seconds, 0.0), MAX_WAIT_SECONDS)


def parse_non_negative_int(query: dict, key: str, default):
    """An optional ``?key=<int >= 0>`` query parameter; bad values are a 400."""
    if key not in query:
        return default
    try:
        value = int(query[key][0])
    except ValueError:
        raise HTTPError(400, f'invalid "{key}" value {query[key][0]!r}') from None
    if value < 0:
        raise HTTPError(400, f'"{key}" must be >= 0, got {value}')
    return value


class HTTPHandler(BaseHTTPRequestHandler):
    """Request handler base: envelope, observability, shared routes.

    Per request the handler sets ``url`` (the split request target),
    ``query`` (its parsed query string), ``body`` (the drained request body;
    empty for GET) and ``route`` (the matched :class:`Route`, or ``None``)
    before the route's handler runs.
    """

    server: "HTTPServerBase"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Name of the span each request runs in.
    span_name = "http.request"
    #: Prefix of the last-resort 500's error message.
    internal_error = "internal server error"
    #: Chaos injection point fired before each dispatch (``None``: none).
    chaos_point: str | None = None

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    def record_request(self, route: str, status: int, seconds: float) -> None:
        """Count one served request into the subclass's metric families."""
        raise NotImplementedError

    def error_response(self, error: Exception) -> tuple | None:
        """Map a domain exception to ``(status, payload[, headers])``;
        ``None`` leaves it to the last-resort 500."""

    def not_ready_reason(self) -> str | None:
        """Why ``GET /v1/readyz`` answers 503 (besides draining), or ``None``."""

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def send_json(
        self, status: int, payload: dict, extra_headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self.send_body(status, body, "application/json; charset=utf-8", extra_headers)

    def send_text(self, status: int, text: str, content_type: str) -> None:
        self.send_body(status, text.encode("utf-8"), content_type)

    def send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        self._observed_status = status  # feeds the request metrics/span
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.server.stopped:
            self.close_connection = True  # answered, but the last on this connection
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #

    def drain_body(self) -> bytes:
        """Always consume the request body: on a keep-alive connection,
        unread bytes would be parsed as the next request line."""
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            # The body length is unknowable, so the body cannot be drained;
            # answer 400 and drop the (now unparseable) connection.
            raise HTTPError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            ) from None
        if length < 0:
            raise HTTPError(
                400, f"invalid Content-Length header {raw_length!r}", close=True
            )
        if length > MAX_BODY_BYTES:
            raise HTTPError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                close=True,
            )
        return self.rfile.read(length) if length else b""

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle()

    def _handle(self) -> None:
        """The observability choke point every request passes through.

        Each request is timed into the subclass's metric families under its
        route *pattern* and runs inside a :attr:`span_name` span — joined to
        the caller's trace when the request carried an ``X-Repro-Trace``
        header, freshly minted otherwise — so jobs submitted by the route
        become its children.  The spans the request starts are written to
        this server's :attr:`~HTTPServerBase.trace_log`, not to another's.

        A server that has stopped listening drops the request unanswered:
        the client sees the connection close, as it would on a stopped
        process, and the request had no effect.
        """
        if self.server.stopped:
            self.close_connection = True
            return
        self.url = urlsplit(self.path)
        parts = [part for part in self.url.path.split("/") if part]
        self.route, params = None, []
        for route in self.routes:
            matched = route.match(self.command, parts)
            if matched is not None:
                self.route, params = route, matched
                break
        label = self.route.pattern if self.route is not None else "unrouted"
        self._observed_status = 0  # 0 = connection died before a response
        with obs_trace.logging_to(self.server.trace_log):
            request_span = obs_trace.start_span(
                self.span_name,
                attrs={"method": self.command, "route": label, "path": self.url.path},
                parent=obs_trace.parse_traceparent(
                    self.headers.get(obs_trace.TRACE_HEADER)
                ),
            )
            started = time.perf_counter()
            try:
                with obs_trace.activate(request_span):
                    self._dispatch(params)
            finally:
                status = self._observed_status
                request_span.set_attr("status", status)
                request_span.finish(status="error" if status >= 500 or status == 0 else "ok")
                self.record_request(label, status, time.perf_counter() - started)

    def _dispatch(self, params: list[str]) -> None:
        """Run the matched route inside the error envelope.

        Guarantees a JSON response (or a deliberately closed connection) for
        every outcome: client errors (:class:`HTTPError`), the subclass's
        domain errors, handler bugs and unserializable results (500), and a
        client that disconnected mid-response (nobody is left to answer).
        """
        try:
            if self.chaos_point is not None:
                maybe_fail(self.chaos_point)
            self.query = parse_qs(self.url.query)
            self.body = self.drain_body() if self.command == "POST" else b""
            if self.route is None:
                raise HTTPError(404, f"no such endpoint {self.url.path!r}")
            self.route.handler(self, *params)
        except HTTPError as error:
            if error.close:
                self.close_connection = True
            self.send_json(error.status, {"error": error.message})
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away; nothing to send
        except Exception as error:  # noqa: BLE001 - last-resort envelope
            response = self.error_response(error)
            if response is not None:
                self.send_json(*response)
                return
            # The response may be half-written and the request half-read;
            # answer on a best-effort basis and retire the connection.
            self.close_connection = True
            try:
                self.send_json(
                    500,
                    {"error": f"{self.internal_error}: {type(error).__name__}: {error}"},
                )
            except (BrokenPipeError, ConnectionResetError, OSError, ValueError, TypeError):
                self._observed_status = 0  # connection unusable; span says error

    # ------------------------------------------------------------------ #
    # Routes both servers serve
    # ------------------------------------------------------------------ #

    def healthz(self) -> None:
        # Liveness: 200 for as long as the process can serve at all, so
        # registries and orchestrators can tell "slow" from "gone".
        self.send_json(200, {"status": "alive"})

    def readyz(self) -> None:
        if self.server.draining:
            self.send_json(503, {"ready": False, "reason": "draining"})
            return
        reason = self.not_ready_reason()
        if reason is not None:
            self.send_json(503, {"ready": False, "reason": reason})
        else:
            self.send_json(200, {"ready": True})

    def metrics(self) -> None:
        fmt = self.query.get("format", ["prometheus"])[0]
        registry = get_metrics()
        if fmt == "json":
            self.send_json(200, registry.to_jsonable())
        elif fmt in ("prometheus", "text"):
            self.send_text(
                200,
                registry.render_prometheus(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            raise HTTPError(
                400, f'invalid "format" {fmt!r}; one of ["json", "prometheus"]'
            )

    def codecs(self) -> None:
        from .. import codecs

        self.send_json(200, {"api_version": API_VERSION, "codecs": codecs.describe_codecs()})

    def scenarios(self) -> None:
        self.send_json(200, {"scenarios": self.server.registry.describe()})

    routes: tuple[Route, ...] = (
        Route("GET", "/v1/codecs", codecs,
              "Codec discovery: names, versions, parameter schemas."),
        Route("GET", "/v1/healthz", healthz,
              "Always-200 process liveness probe."),
        Route("GET", "/v1/metrics", metrics,
              "Prometheus text (or `?format=json`) for every metric family."),
        Route("GET", "/v1/readyz", readyz,
              "Readiness: 200 when ready; 503 while draining or not yet ready "
              "(a node replaying its journal, a gateway with no healthy node)."),
        Route("GET", "/v1/scenarios", scenarios,
              "Scenario discovery: names and canonical default params."),
    )


class HTTPServerBase(ThreadingHTTPServer):
    """Threading HTTP server with a drain flag and a safe shutdown.

    Subclasses own ``registry`` (served by ``GET /v1/scenarios``) and
    whatever state their handler's routes read.
    """

    daemon_threads = True
    #: Where the spans this server's handlers start are logged (``None``:
    #: only the process-wide recorder sees them).
    trace_log: obs_trace.TraceLog | None = None
    #: Seconds a keep-alive connection may sit idle before the server closes
    #: it, so idle clients do not pin handler threads.  Clients reopen a
    #: connection the server closed (see ``repro.service.client``).
    keepalive_timeout_s = 30.0

    def __init__(
        self, address: tuple[str, int], handler_class: type[HTTPHandler], verbose: bool
    ):
        super().__init__(address, handler_class)
        self.verbose = verbose
        #: Set by :meth:`begin_drain`; ``GET /v1/readyz`` then answers 503.
        self.draining = False
        self.started_at = time.time()
        #: Set by :meth:`stop_listening`; requests still arriving on open
        #: connections are then dropped unanswered.
        self.stopped = False
        self._serving = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def process_request(self, request: socket.socket, client_address) -> None:
        request.settimeout(self.keepalive_timeout_s)
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def stop_listening(self) -> None:
        """Close the listener and retire every open connection.

        Idle connections see end-of-file at once and close; a request
        already being served is still answered.  Requests that arrive
        afterwards are dropped unanswered (see :meth:`HTTPHandler._handle`).
        """
        self.stopped = True
        # BaseServer.shutdown() waits on an event that only serve_forever()
        # sets on exit; calling it on a server that never served (e.g. the
        # CLI's failed-registration path) would block forever.
        if self._serving:
            self.shutdown()
        self.server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler

    def begin_drain(self) -> None:
        """Flip ``GET /v1/readyz`` to 503 ahead of a graceful shutdown.

        Called by the CLI's signal handler *before* the listener stops, so a
        registry or load balancer polling readyz sees "draining" while the
        server still answers, instead of a hard connection refusal.
        """
        self.draining = True
