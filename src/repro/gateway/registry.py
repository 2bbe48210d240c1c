"""Node registry: who is in the fleet, how healthy, and on which revision.

``repro serve --register URL`` self-registers here and then heartbeats.
Each heartbeat carries the node's queue depth (for observability) and its
**registry digest** — a stable hash over the node's scenario registry and
codec schemas.  A node whose digest differs from the gateway's is refused at
registration (HTTP 409): routing by content digest only works when every
party canonicalizes parameters identically, so registry skew is rejected at
the door instead of surfacing later as checkpoint corruption (the gateway
also checks each proxied response's digest).

Health is heartbeat-driven and moves one way between sweeps::

    healthy --(suspect_after missed)--> suspect --(dead_after)--> dead
       ^                                  |
       +----------- heartbeat ------------+

A *suspect* node is skipped for new routing but its in-flight jobs are left
alone (it may merely be slow); a *dead* node's unfinished jobs are replayed
onto survivors from the replica journal (see :mod:`repro.gateway.server`).
A heartbeat from a suspect node restores it to healthy; a dead node must
re-register (its replica journal continues under the same stable node id).
Static members have no agent: the gateway's sweeper probes them instead,
counting an answered ``GET /v1/readyz`` as a heartbeat and demoting a
failed one with :meth:`NodeRegistry.mark_suspect`.
Every transition is counted in ``repro_gateway_node_transitions_total`` and
traced as a ``gateway.node.transition`` span.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..service.registry import compute_registry_digest

__all__ = [
    "Node",
    "NodeRegistry",
    "RegistrySkewError",
    "UnknownNodeError",
    "compute_registry_digest",
    "node_id_for_url",
]

#: The health states a node moves through (also the bounded metric label set).
NODE_STATES = ("healthy", "suspect", "dead", "left")

#: Node ids become replica-journal directory names, so they are restricted to
#: one path-safe segment — anything else is refused at registration.
_NODE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_OBS = get_metrics()
_NODES_GAUGE = _OBS.get("repro_gateway_nodes")
_TRANSITIONS = _OBS.get("repro_gateway_node_transitions_total")
_HEARTBEATS = _OBS.get("repro_gateway_heartbeats_total")


class RegistrySkewError(ValueError):
    """The node's registry digest does not match the gateway's."""


class UnknownNodeError(KeyError):
    """Heartbeat/journal/deregister for a node id never registered."""


def node_id_for_url(url: str) -> str:
    """Deterministic node id for an advertised URL.

    Stable across node restarts so a restarted node re-registers under the
    same id and its replica journal (and failover bookkeeping) continue
    seamlessly.
    """
    return "node-" + hashlib.sha256(url.encode("utf-8")).hexdigest()[:12]


@dataclass
class Node:
    """One registered node and everything the gateway knows about it."""

    node_id: str
    url: str
    registry_digest: str
    state: str = "healthy"
    last_heartbeat: float = 0.0
    queue_depth: int = 0
    heartbeats: int = 0
    reason: str = ""
    registered_at: float = field(default=0.0)

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "url": self.url,
            "state": self.state,
            "queue_depth": self.queue_depth,
            "heartbeats": self.heartbeats,
            "reason": self.reason,
        }


class NodeRegistry:
    """Thread-safe registry of nodes with heartbeat-driven health.

    ``clock`` is injectable (monotonic seconds) so the state machine is unit
    testable without sleeping; :meth:`sweep` applies the timeouts and returns
    the transitions it made, so the caller (the gateway's sweeper thread) can
    react — above all by replaying a newly dead node's unfinished jobs.
    """

    def __init__(
        self,
        expected_digest: str,
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not suspect_after > 0 or not dead_after > suspect_after:
            raise ValueError("need 0 < suspect_after < dead_after")
        self.expected_digest = expected_digest
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self._clock = clock
        self._lock = threading.Lock()
        self._nodes: dict[str, Node] = {}

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #

    def register(self, url: str, registry_digest: str, node_id: str | None = None) -> Node:
        """Admit (or re-admit) one node; raises on skew or a bad node id.

        Re-registration under a known id is how a restarted or previously
        dead node rejoins: its record is replaced, its health resets to
        healthy, and its history (replica journal, keyed by node id) carries
        over outside this class.
        """
        if registry_digest != self.expected_digest:
            raise RegistrySkewError(
                f"registry digest mismatch: node {url} reports "
                f"{registry_digest[:12]}..., gateway expects "
                f"{self.expected_digest[:12]}... — the node runs a different "
                "revision and would canonicalize jobs differently; refusing"
            )
        node_id = node_id or node_id_for_url(url)
        if not _NODE_ID_RE.match(node_id):
            raise ValueError(
                f"invalid node id {node_id!r}: one path-safe segment of at "
                "most 64 characters ([A-Za-z0-9._-], not starting with a dot)"
            )
        with self._lock:
            previous = self._nodes.get(node_id)
            node = Node(
                node_id=node_id,
                url=url.rstrip("/"),
                registry_digest=registry_digest,
                state="healthy",
                last_heartbeat=self._clock(),
                registered_at=self._clock(),
            )
            self._nodes[node_id] = node
            self._update_gauges_locked()
        if previous is None or previous.state != "healthy":
            self._record_transition(node, previous.state if previous else None, "healthy")
        return node

    def deregister(self, node_id: str) -> Node:
        """A node's graceful goodbye (SIGTERM drain): state becomes ``left``."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise UnknownNodeError(node_id)
            old_state = node.state
            node.state = "left"
            node.reason = "deregistered"
            self._update_gauges_locked()
        if old_state != "left":
            self._record_transition(node, old_state, "left")
        return node

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #

    def heartbeat(self, node_id: str, queue_depth: int, registry_digest: str) -> Node:
        """Record one heartbeat; revives a suspect node, rejects skew.

        A *dead* or *left* node's heartbeat is refused with
        :class:`UnknownNodeError` — its unfinished jobs were (or are being)
        replayed elsewhere, so it must go through a fresh registration to
        take new work.
        """
        if registry_digest != self.expected_digest:
            _HEARTBEATS.inc(outcome="skew")
            raise RegistrySkewError(
                f"heartbeat digest mismatch from {node_id}: the node registry "
                "changed underneath a running node; re-register"
            )
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or node.state in ("dead", "left"):
                _HEARTBEATS.inc(outcome="unknown")
                raise UnknownNodeError(node_id)
            old_state = node.state
            node.last_heartbeat = self._clock()
            node.queue_depth = max(int(queue_depth), 0)
            node.heartbeats += 1
            node.state = "healthy"
            node.reason = ""
            self._update_gauges_locked()
        _HEARTBEATS.inc(outcome="ok")
        if old_state != "healthy":
            self._record_transition(node, old_state, "healthy")
        return node

    def mark_suspect(self, node_id: str, reason: str) -> None:
        """Eagerly demote a node the gateway failed to reach (proxy error).

        Faster than waiting out ``suspect_after``: one refused connection is
        evidence enough to stop routing *new* work there; the heartbeat (or
        the sweeper) settles whether it comes back or dies.
        """
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or node.state != "healthy":
                return
            node.state = "suspect"
            node.reason = reason
            self._update_gauges_locked()
        self._record_transition(node, "healthy", "suspect")

    def sweep(self) -> list[tuple[Node, str, str]]:
        """Apply the heartbeat timeouts; return ``(node, old, new)`` moves.

        healthy -> suspect after ``suspect_after`` seconds of silence,
        suspect -> dead after ``dead_after``.  The caller reacts to the
        returned transitions (a node newly *dead* triggers failover replay).
        """
        now = self._clock()
        transitions: list[tuple[Node, str, str]] = []
        with self._lock:
            for node in self._nodes.values():
                if node.state in ("dead", "left"):
                    continue
                silent_for = now - node.last_heartbeat
                if node.state in ("healthy", "suspect") and silent_for >= self.dead_after:
                    transitions.append((node, node.state, "dead"))
                    reason = f"no heartbeat for {silent_for:.1f}s"
                    if node.state == "suspect" and node.reason:
                        reason += f" (suspect since: {node.reason})"  # keep the cause
                    node.state = "dead"
                    node.reason = reason
                elif node.state == "healthy" and silent_for >= self.suspect_after:
                    transitions.append((node, node.state, "suspect"))
                    node.state = "suspect"
                    node.reason = f"no heartbeat for {silent_for:.1f}s"
            if transitions:
                self._update_gauges_locked()
        for node, old_state, new_state in transitions:
            self._record_transition(node, old_state, new_state)
        return transitions

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get(self, node_id: str) -> Node | None:
        with self._lock:
            return self._nodes.get(node_id)

    def nodes(self) -> list[Node]:
        with self._lock:
            return sorted(self._nodes.values(), key=lambda node: node.node_id)

    def healthy_ids(self) -> set[str]:
        with self._lock:
            return {
                node_id
                for node_id, node in self._nodes.items()
                if node.state == "healthy"
            }

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts = dict.fromkeys(NODE_STATES, 0)
            for node in self._nodes.values():
                counts[node.state] = counts.get(node.state, 0) + 1
            return counts

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _update_gauges_locked(self) -> None:
        counts = dict.fromkeys(NODE_STATES, 0)
        for node in self._nodes.values():
            counts[node.state] = counts.get(node.state, 0) + 1
        for state in NODE_STATES:
            _NODES_GAUGE.set(float(counts[state]), state=state)

    @staticmethod
    def _record_transition(node: Node, old_state: str | None, new_state: str) -> None:
        """Metric + span for one health transition (states are a closed set)."""
        _TRANSITIONS.inc(state=new_state)
        with obs_trace.span(
            "gateway.node.transition",
            attrs={
                "node": node.node_id,
                "url": node.url,
                "from": old_state or "unregistered",
                "to": new_state,
                "reason": node.reason,
            },
        ) as event:
            if new_state == "dead":
                event.finish(error=node.reason or "node dead")
