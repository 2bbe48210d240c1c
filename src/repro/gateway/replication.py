"""Gateway-side replica journals: one checksummed JSONL stream per node.

Every node that registers streams its journal appends to the gateway
(``POST /v1/nodes/<id>/journal``), and the gateway *also* writes its own
submit line at proxy time for every job it routes.  The double write is the
point: a node SIGKILLed before its shipper flushed still leaves the gateway
holding a submit record for everything the gateway routed to it, which is
exactly the set failover must replay.

Lines use the service journal's checksummed format verbatim
(:func:`repro.service.journal.checksummed_line`), and replicas are read
with the journal's own reader and fold
(:func:`repro.service.journal.read_records`, :func:`~repro.service.journal.fold_jobs`).
Duplicate submit lines for a job (same id, same digest) are harmless: the
fold keeps the first, carries over a ``gateway_id``, and keeps any finish.
A submit with the same id but a different digest is a new job — a node
without a journal restarts its ids — and replaces the old entry, so
failover replays it.  A streamed line that fails verification is rejected
at ingest (counted in
``repro_gateway_replicated_lines_total{outcome="rejected"}``), never
written; a bad line found on read is skipped.

Replicas live under ``<state>/replicas/<node_id>/journal.jsonl``.  Node ids
were validated path-safe at registration, but the store re-checks before
touching the filesystem — defense in depth against a handler bug.

The store keeps one append handle per replica open (a routed submit costs a
write, not an open and a close) and flushes it after every batch of lines
under its lock.  Readers take the file size under the same lock and stream
the lines below it, so they see only whole lines, never hold the lock while
parsing, and never load a whole replica.  :meth:`ReplicaStore.close` closes
the handles: one node's when the gateway fails it over, all at shutdown.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path
from typing import Any, Iterator, TextIO

from ..service.journal import checksummed_line, fold_jobs, parse_line, read_records
from ..obs.metrics import get_metrics

__all__ = ["ReplicaStore"]

_NODE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_OBS_LINES = get_metrics().get("repro_gateway_replicated_lines_total")


class ReplicaStore:
    """Per-node replica journals under one state directory (thread-safe)."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        (self.directory / "replicas").mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Open append handle per node id; guarded by ``_lock``.
        self._handles: dict[str, TextIO] = {}

    def _journal_path(self, node_id: str) -> Path:
        if not _NODE_ID_RE.match(node_id):
            raise ValueError(f"invalid node id {node_id!r}")
        return self.directory / "replicas" / node_id / "journal.jsonl"

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def _write_locked(self, node_id: str, lines: list[str]) -> None:
        """Append whole lines to a node's replica; callers hold ``_lock``."""
        handle = self._handles.get(node_id)
        if handle is None:
            path = self._journal_path(node_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = self._handles[node_id] = path.open("a", encoding="utf-8")
        for line in lines:
            handle.write(line + "\n")
        handle.flush()

    def close(self, node_id: str | None = None) -> None:
        """Close one node's append handle, or every one.

        A later write reopens its replica.  The gateway closes a node's
        handle when it fails the node over, so nodes that come and go do not
        accumulate open files.
        """
        with self._lock:
            if node_id is None:
                handles = list(self._handles.values())
                self._handles.clear()
            else:
                handle = self._handles.pop(node_id, None)
                handles = [] if handle is None else [handle]
            for handle in handles:
                handle.close()

    def append_lines(self, node_id: str, lines: list[str]) -> dict:
        """Ingest raw journal lines streamed by a node; verify each first.

        A line must parse as a JSON object and pass the shared checksum
        rule before it is written (verbatim) to the node's replica.
        Returns ``{"accepted": n, "rejected": n}``.
        """
        self._journal_path(node_id)  # refuse a bad node id before parsing
        accepted: list[str] = []
        rejected = 0
        for raw in lines:
            line = raw.strip() if isinstance(raw, str) else ""
            if parse_line(line)[0] is not None:
                accepted.append(line)  # the raw line, crc32 and all
            else:
                rejected += 1
        if accepted:
            with self._lock:
                self._write_locked(node_id, accepted)
            _OBS_LINES.inc(len(accepted), outcome="accepted")
        if rejected:
            _OBS_LINES.inc(rejected, outcome="rejected")
        return {"accepted": len(accepted), "rejected": rejected}

    def record_submit(self, node_id: str, **fields: Any) -> None:
        """Write one gateway-authored submit line into a node's replica.

        Called at proxy time for every routed submission, with the fields
        the service journal's own submit record carries (job_id, type,
        params, digest, ...) — so failover replay reads one uniform shape.
        """
        line = checksummed_line({"event": "submit", **fields})
        with self._lock:
            self._write_locked(node_id, [line])
        _OBS_LINES.inc(outcome="accepted")

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _read(self, node_id: str) -> Iterator[dict]:
        """Stream a replica's verified records, skipping bad lines.

        The size is read under the write lock, so the stream holds only
        whole, flushed lines and is parsed without the lock.  Nothing is
        quarantined: :meth:`job_view` re-reads the replica on every
        synthetic poll.
        """
        path = self._journal_path(node_id)
        with self._lock:
            return read_records(path)

    def merged(self, node_id: str) -> tuple[list[str], dict[str, dict]]:
        """Fold a replica into per-job ``{"submit": ..., "finish": ...}``
        with the journal's one fold (:func:`repro.service.journal.fold_jobs`)."""
        jobs = fold_jobs(self._read(node_id))
        return list(jobs), jobs

    def unfinished(self, node_id: str) -> list[dict]:
        """Submit records with no finish line — the set failover replays."""
        jobs = fold_jobs(self._read(node_id), keep_finished=False)
        return [entry["submit"] for entry in jobs.values() if entry["finish"] is None]

    def job_view(self, node_id: str, job_id: str) -> dict | None:
        """The replica's view of one job (``{"submit", "finish"}``) or None."""
        records = (r for r in self._read(node_id) if r.get("job_id") == job_id)
        return fold_jobs(records).get(job_id)
