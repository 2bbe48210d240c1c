"""Gateway-side replica journals: one checksummed JSONL stream per node.

Every node that registers streams its journal appends to the gateway
(``POST /v1/nodes/<id>/journal``), and the gateway *also* writes its own
submit line at proxy time for every job it routes.  The double write is the
point: a node SIGKILLed before its shipper flushed still leaves the gateway
holding a submit record for everything the gateway routed to it, which is
exactly the set failover must replay.  Duplicate submit lines for the same
job id are harmless — the fold keeps one submit and any finish per job.

Lines use the service journal's checksummed format verbatim
(:func:`repro.service.journal.checksummed_line`), so one verifier covers the
primary journal, the replicas, and anything that replays them; a line that
fails verification is rejected at ingest (counted in
``repro_gateway_replicated_lines_total{outcome="rejected"}``), never written.

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

import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Iterator, TextIO

from ..service.journal import checksummed_line, verify_checksum
from ..obs.metrics import get_metrics

__all__ = ["ReplicaStore"]

_NODE_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_OBS_LINES = get_metrics().get("repro_gateway_replicated_lines_total")

#: Finish events, mirroring the service journal's terminal states.
_FINISH_EVENTS = ("done", "failed", "cancelled")


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
            record: Any = None
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
            # verify_checksum pops crc32 — hand it a copy, keep the raw line.
            if isinstance(record, dict) and verify_checksum(dict(record)):
                accepted.append(line)
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

    def _records(self, node_id: str) -> Iterator[dict]:
        """Stream a replica's verified records, oldest first.

        The file size is read under the lock; every byte below it belongs to
        a whole, flushed line, so the lines are then read one at a time
        without holding the lock (routed submits keep appending meanwhile)
        and without loading the whole replica.
        """
        path = self._journal_path(node_id)
        with self._lock:
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                return
        with path.open("rb") as handle:
            for raw in handle:
                size -= len(raw)
                if size < 0:
                    return  # appended after the snapshot (or a torn tail)
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                # Verified at ingest; re-verified here so a corrupted replica
                # file (torn tail after a gateway crash) degrades to skipping
                # the bad line, mirroring the primary journal's behaviour.
                if isinstance(record, dict) and verify_checksum(record):
                    yield record

    def _fold(
        self, node_id: str, job_id: str | None = None, keep_finished: bool = True
    ) -> dict[str, Any]:
        """Per-job ``{"submit": ..., "finish": ...}`` in first-seen order.

        ``job_id`` folds that one job only.  With ``keep_finished=False`` a
        finished job's entry shrinks to ``None``, so the fold holds only
        unfinished work however long the replica is.
        """
        merged: dict[str, Any] = {}
        for record in self._records(node_id):
            rid = record.get("job_id")
            event = record.get("event")
            if not isinstance(rid, str) or (job_id is not None and rid != job_id):
                continue
            entry = merged.get(rid)
            if rid in merged and entry is None:
                continue  # finished, and dropped
            if event == "submit":
                if entry is None:
                    merged[rid] = {"submit": record, "finish": None}
                elif entry["submit"] is None:
                    entry["submit"] = record
                else:
                    # Duplicate submit (gateway-authored + node-streamed):
                    # keep the first, but carry over a gateway_id so chained
                    # failover can recover the original gateway job id
                    # whichever line won the fold.
                    kept = entry["submit"]
                    if "gateway_id" not in kept and "gateway_id" in record:
                        entry["submit"] = {**kept, "gateway_id": record["gateway_id"]}
            elif event in _FINISH_EVENTS:
                if not keep_finished:
                    merged[rid] = None
                elif entry is None:
                    merged[rid] = {"submit": None, "finish": record}
                else:
                    entry["finish"] = record
        return merged

    def merged(self, node_id: str) -> tuple[list[str], dict[str, dict]]:
        """Fold a replica into per-job ``{"submit": ..., "finish": ...}``.

        Unlike the primary journal's fold, a duplicate submit never clears
        an already-recorded finish: the gateway's proxy-time submit line and
        the node's own streamed submit line arrive independently, and the
        job is finished once either stream says so.
        """
        merged = self._fold(node_id)
        return list(merged), merged

    def unfinished(self, node_id: str) -> list[dict]:
        """Submit records with no finish line — the set failover replays."""
        return [
            entry["submit"]
            for entry in self._fold(node_id, keep_finished=False).values()
            if entry is not None and isinstance(entry["submit"], dict)
        ]

    def job_view(self, node_id: str, job_id: str) -> dict | None:
        """The replica's view of one job (``{"submit", "finish"}``) or None."""
        return self._fold(node_id, job_id=job_id).get(job_id)
