"""Node-side gateway agent: register, heartbeat, stream the journal.

``repro serve --register URL`` attaches one of these to the node's server.
It does three things, all best-effort and none on the request path:

* **Register** once at startup (``POST /v1/nodes`` with the node's URL and
  registry digest) — synchronously, so a node whose registry digest the
  gateway refuses (HTTP 409, skew) fails fast and visibly instead of
  serving unroutable work.
* **Heartbeat** every ``heartbeat_interval`` seconds with the pool's queue
  depth and the digest; a 404 answer means the gateway restarted or swept
  this node to dead — the agent simply re-registers and carries on.
* **Replicate** journal lines: a sink on the node's :class:`JobJournal`
  buffers every appended line (bounded — oldest dropped beyond
  ``buffer_limit``), and the heartbeat thread flushes the buffer to
  ``POST /v1/nodes/<id>/journal`` in chunks of at most
  ``_FLUSH_CHUNK_LINES`` lines.  Failures requeue the unsent lines; the
  node's own journal remains the durable copy either way.

The agent owns one background thread; :meth:`stop` joins it, performs a
final flush, and deregisters gracefully (the gateway marks the node "left"
instead of sweeping it to dead and replaying its finished work).
"""

from __future__ import annotations

import threading

from ..service.client import ServiceClient, ServiceError, ServiceRequestError
from .registry import compute_registry_digest, node_id_for_url

__all__ = ["GatewayAgent"]

#: Most journal lines one ``POST /v1/nodes/<id>/journal`` carries.  A busy
#: node buffers thousands of lines between heartbeats; one body holding them
#: all costs memory on both ends in proportion, a chunk a bounded amount.
_FLUSH_CHUNK_LINES = 256


class GatewayAgent:
    """Registers ``server`` with a gateway and keeps it registered."""

    def __init__(
        self,
        gateway_url: str,
        node_url: str,
        server,
        heartbeat_interval: float = 1.0,
        node_id: str | None = None,
        buffer_limit: int = 10_000,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        self.gateway_url = gateway_url.rstrip("/")
        self.node_url = node_url.rstrip("/")
        self.server = server
        self.heartbeat_interval = heartbeat_interval
        self.buffer_limit = buffer_limit
        self.registry_digest = compute_registry_digest(server.registry)
        self.node_id = node_id or node_id_for_url(self.node_url)
        # One quick retry only: the heartbeat loop itself is the real retry
        # mechanism, and a slow gateway must not stall the loop for long.
        self.client = ServiceClient(
            self.gateway_url, timeout=10.0, retries=1, backoff=0.1
        )
        self.heartbeat_failures = 0
        self.flush_failures = 0
        self.reregistrations = 0
        self.dropped_lines = 0
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> dict:
        """Register (raising on refusal) and start the heartbeat thread."""
        reply = self.client.request(
            "POST",
            "/v1/nodes",
            {
                "url": self.node_url,
                "registry_digest": self.registry_digest,
                "node_id": self.node_id,
            },
        )
        journal = getattr(self.server, "journal", None)
        if journal is not None:
            journal.add_sink(self._enqueue)
        thread = threading.Thread(
            target=self._run, name=f"gateway-agent-{self.node_id}", daemon=True
        )
        with self._lock:
            self._thread = thread
        thread.start()
        return reply

    def stop(self) -> None:
        """Stop heartbeating, flush the buffer, deregister gracefully."""
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=self.heartbeat_interval + 10.0)
        journal = getattr(self.server, "journal", None)
        if journal is not None:
            journal.remove_sink(self._enqueue)
        self.flush()
        try:
            self.client.request(
                "POST", f"/v1/nodes/{self.node_id}/deregister", {}
            )
        except ServiceError:
            # The gateway may already be gone; its sweeper will notice us
            # missing either way, so a failed goodbye is only worth a tally.
            self.heartbeat_failures += 1

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            self.flush()
            self.heartbeat()

    # ------------------------------------------------------------------ #
    # Journal replication
    # ------------------------------------------------------------------ #

    def _enqueue(self, line: str) -> None:
        """Journal sink: buffer one raw line for the next flush."""
        with self._lock:
            self._buffer.append(line)
            overflow = len(self._buffer) - self.buffer_limit
            if overflow > 0:
                del self._buffer[:overflow]
                self.dropped_lines += overflow

    def pending_lines(self) -> int:
        with self._lock:
            return len(self._buffer)

    def flush(self) -> None:
        """Ship buffered journal lines to the gateway in bounded chunks.

        A chunk that fails puts itself and every later chunk back at the
        front of the buffer, in their order, and ends the flush.
        """
        with self._lock:
            lines = self._buffer
            self._buffer = []
        for start in range(0, len(lines), _FLUSH_CHUNK_LINES):
            chunk = lines[start:start + _FLUSH_CHUNK_LINES]
            try:
                self.client.request(
                    "POST",
                    f"/v1/nodes/{self.node_id}/journal",
                    {"lines": chunk},
                )
            except ServiceRequestError as error:
                self.flush_failures += 1
                if error.status == 404:
                    # Gateway restarted or declared us dead: rejoin, keep lines.
                    self._requeue(lines[start:])
                    self._reregister()
                    return
                # A non-404 4xx means the gateway examined and refused the
                # chunk; resending the same lines would loop forever.
                with self._lock:
                    self.dropped_lines += len(chunk)
            except ServiceError:
                self.flush_failures += 1
                self._requeue(lines[start:])
                return

    def _requeue(self, lines: list[str]) -> None:
        with self._lock:
            self._buffer[:0] = lines
            overflow = len(self._buffer) - self.buffer_limit
            if overflow > 0:
                del self._buffer[:overflow]
                self.dropped_lines += overflow

    # ------------------------------------------------------------------ #
    # Heartbeats
    # ------------------------------------------------------------------ #

    def heartbeat(self) -> None:
        try:
            queue_depth = int(self.server.pool.stats().get("inflight", 0))
        except (AttributeError, TypeError, ValueError):
            queue_depth = 0
        try:
            self.client.request(
                "POST",
                f"/v1/nodes/{self.node_id}/heartbeat",
                {
                    "queue_depth": queue_depth,
                    "registry_digest": self.registry_digest,
                    "url": self.node_url,
                },
            )
        except ServiceRequestError as error:
            self.heartbeat_failures += 1
            if error.status == 404:
                self._reregister()
        except ServiceError:
            self.heartbeat_failures += 1

    def _reregister(self) -> None:
        try:
            self.client.request(
                "POST",
                "/v1/nodes",
                {
                    "url": self.node_url,
                    "registry_digest": self.registry_digest,
                    "node_id": self.node_id,
                },
            )
            self.reregistrations += 1
        except ServiceError:
            self.heartbeat_failures += 1

    def stats(self) -> dict:
        return {
            "node_id": self.node_id,
            "gateway": self.gateway_url,
            "pending_lines": self.pending_lines(),
            "heartbeat_failures": self.heartbeat_failures,
            "flush_failures": self.flush_failures,
            "reregistrations": self.reregistrations,
            "dropped_lines": self.dropped_lines,
        }
