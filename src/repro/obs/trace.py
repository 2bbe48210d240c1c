"""Trace spans with context propagation across threads and HTTP.

A trace is a tree of spans sharing one ``trace_id``.  The id is minted at the
first instrumented boundary a request crosses — HTTP ingress, CLI entry, or
``WorkerPool.submit`` for direct submissions — and every span started while a
context is active becomes a child of it.  Propagation:

* **In-process**: a :mod:`contextvars` context variable, so spans flow through
  threads started via executors that copy context (and explicitly via
  :func:`activate` where they do not).
* **Across HTTP**: the ``X-Repro-Trace: <32-hex trace_id>-<16-hex span_id>``
  header, injected by :class:`~repro.service.client.ServiceClient` from the
  current context and honored by the server at ingress.  Malformed headers are
  ignored (a fresh trace starts) — tracing must never fail a request.
* **Across the journal**: a job's ``trace_id`` rides in its submit record, so
  replayed jobs keep their trace identity after a restart.

Finished spans fan out to the process-wide sinks — an in-memory ring buffer
(:class:`TraceBuffer`, backing ``GET /v1/jobs/<id>/trace``) — and to the
:class:`TraceLog` that was current when the span started, if any.  A server
makes its JSONL log next to the job journal current (:func:`logging_to`) in
its request handlers and workers, so with several servers in one process
each log holds only the spans its own server started.  Sink errors are
swallowed — observability is best-effort by design, like the journal.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "TRACE_HEADER",
    "Span",
    "SpanRecorder",
    "TraceBuffer",
    "TraceContext",
    "TraceLog",
    "activate",
    "build_span_tree",
    "current_context",
    "current_log",
    "format_traceparent",
    "get_recorder",
    "logging_to",
    "new_trace_id",
    "parse_traceparent",
    "span",
    "start_span",
]

#: HTTP header carrying ``<trace_id>-<span_id>`` across service boundaries.
TRACE_HEADER = "X-Repro-Trace"

_TRACEPARENT = re.compile(r"([0-9a-f]{32})-([0-9a-f]{16})")


def new_trace_id() -> str:
    # os.urandom().hex() over uuid4(): same 128 random bits without paying
    # for a UUID object on every span (spans wrap sub-millisecond codec calls).
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """The (trace, span) pair child spans attach to."""

    trace_id: str
    span_id: str


def format_traceparent(ctx: TraceContext) -> str:
    return f"{ctx.trace_id}-{ctx.span_id}"


def parse_traceparent(value: str | None) -> TraceContext | None:
    """Parse a ``X-Repro-Trace`` header value; ``None`` if malformed."""
    if not value:
        return None
    match = _TRACEPARENT.fullmatch(value.strip().lower())
    if not match:
        return None
    return TraceContext(trace_id=match.group(1), span_id=match.group(2))


_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The active trace context of this thread/task, if any."""
    return _current.get()


_log: contextvars.ContextVar[TraceLog | None] = contextvars.ContextVar(
    "repro_trace_log", default=None
)


def current_log() -> TraceLog | None:
    """The trace log spans started in this thread/task are written to, if any."""
    return _log.get()


@contextlib.contextmanager
def logging_to(log: TraceLog | None) -> Iterator[None]:
    """Write the spans started in the ``with`` body to ``log`` (``None``: to no log)."""
    token = _log.set(log)
    try:
        yield
    finally:
        _log.reset(token)


@dataclass
class Span:
    """One timed operation inside a trace.

    Spans from :func:`span` finish automatically; manually created spans
    (:func:`start_span`) must call :meth:`finish` exactly once — repeat
    finishes are ignored so error paths can finish defensively.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=_new_span_id)
    parent_id: str | None = None
    start_time: float = field(default_factory=time.time)
    duration: float | None = None
    status: str = "ok"
    error: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: The log this span is written to besides the recorder's sinks.
    log: TraceLog | None = field(default_factory=current_log, repr=False)
    _start_pc: float = field(default_factory=time.perf_counter, repr=False)
    _finished: bool = field(default=False, repr=False)

    @property
    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def finish(self, status: str | None = None, error: str | None = None) -> None:
        """Close the span and emit it to the recorder's sinks."""
        if self._finished:
            return
        self._finished = True
        self.duration = time.perf_counter() - self._start_pc
        if status is not None:
            self.status = status
        if error is not None:
            self.error = error
            self.status = "error"
        get_recorder().emit(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
        }


def start_span(
    name: str,
    attrs: dict[str, Any] | None = None,
    parent: TraceContext | None = None,
) -> Span:
    """Create a span without activating it (caller finishes it explicitly).

    Parents to ``parent`` if given, else to the current context, else mints a
    new trace.  The contextvar is untouched — use :func:`activate` (or the
    :func:`span` context manager) to make it the parent of nested work.
    """
    ctx = parent if parent is not None else current_context()
    if ctx is None:
        return Span(name=name, trace_id=new_trace_id(), attrs=dict(attrs or {}))
    return Span(
        name=name,
        trace_id=ctx.trace_id,
        parent_id=ctx.span_id,
        attrs=dict(attrs or {}),
    )


@contextlib.contextmanager
def activate(target: Span | TraceContext | None) -> Iterator[None]:
    """Make ``target`` the current context for the ``with`` body."""
    ctx = target.context if isinstance(target, Span) else target
    token = _current.set(ctx)
    try:
        yield
    finally:
        _current.reset(token)


@contextlib.contextmanager
def span(
    name: str,
    attrs: dict[str, Any] | None = None,
    parent: TraceContext | None = None,
) -> Iterator[Span]:
    """Start an active child span; finishes on exit (``error`` on exception)."""
    current = start_span(name, attrs=attrs, parent=parent)
    token = _current.set(current.context)
    try:
        yield current
    except BaseException as exc:
        current.finish(error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _current.reset(token)
        current.finish()  # no-op if the except branch already closed it


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #


class TraceBuffer:
    """In-memory ring of recent finished spans, queryable by trace id."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        # A deque ring: appends stay O(1) once full (a list would memmove
        # the whole buffer per append, a real cost on the codec hot path).
        self._spans: deque[dict] = deque(maxlen=capacity)

    def __call__(self, record: dict) -> None:
        with self._lock:
            self._spans.append(record)

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def spans_for_trace(self, trace_id: str) -> list[dict]:
        with self._lock:
            return [s for s in self._spans if s.get("trace_id") == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


class TraceLog:
    """Append-only JSONL span log (one file, best-effort, like the journal).

    One append handle stays open, flushed after every line under the log's
    lock, so :meth:`read` (which takes the lock too) sees whole lines.
    :meth:`close` closes it; a later span reopens it.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = None
        self.write_errors = 0
        self.read_errors = 0

    def __call__(self, record: dict) -> None:
        try:
            line = json.dumps(record, sort_keys=True, default=str)
        except (TypeError, ValueError):
            self.write_errors += 1
            return
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = self.path.open("a", encoding="utf-8")
                self._handle.write(line + "\n")
                self._handle.flush()
            except OSError:
                self.write_errors += 1

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    self.write_errors += 1

    def read(self) -> list[dict]:
        """Parse the log, skipping lines torn by a crash."""
        with self._lock:
            if not self.path.exists():
                return []
            with self.path.open("r", encoding="utf-8") as fh:
                lines = fh.readlines()
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                self.read_errors += 1
        return records


class SpanRecorder:
    """Fans finished spans out to registered sinks and each span's own log,
    swallowing sink errors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: list = []
        self.sink_errors = 0
        self.buffer = TraceBuffer()
        self._sinks.append(self.buffer)

    def add_sink(self, sink) -> None:
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def emit(self, span_obj: Span) -> None:
        record = span_obj.to_dict()
        with self._lock:
            sinks = list(self._sinks)
        if span_obj.log is not None:
            sinks.append(span_obj.log)
        for sink in sinks:
            try:
                sink(record)
            except Exception:
                # A broken sink must never break the traced code, but the
                # swallow has to stay visible somewhere.
                self.sink_errors += 1


_recorder_lock = threading.Lock()
_recorder: SpanRecorder | None = None


def get_recorder() -> SpanRecorder:
    """The process-wide span recorder."""
    global _recorder
    if _recorder is None:
        with _recorder_lock:
            if _recorder is None:
                _recorder = SpanRecorder()
    return _recorder


# --------------------------------------------------------------------------- #
# Span-tree assembly (for /v1/jobs/<id>/trace and `repro obs trace`)
# --------------------------------------------------------------------------- #


def build_span_tree(spans: Iterable[dict]) -> list[dict]:
    """Nest flat span records into parent->children trees.

    Spans whose parent is absent (still open, evicted from the ring, or on
    another node) become roots, so partial traces still render.  Roots and
    children sort by start time.
    """
    nodes = {
        record["span_id"]: {**record, "children": []}
        for record in spans
        if record.get("span_id")
    }
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    def sort_key(node):
        return (node.get("start_time") or 0.0, node["span_id"])
    for node in nodes.values():
        node["children"].sort(key=sort_key)
    roots.sort(key=sort_key)
    return roots
