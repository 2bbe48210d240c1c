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
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Any

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

    def _journal_path(self, node_id: str) -> Path:
        if not _NODE_ID_RE.match(node_id):
            raise ValueError(f"invalid node id {node_id!r}")
        return self.directory / "replicas" / node_id / "journal.jsonl"

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append_lines(self, node_id: str, lines: list[str]) -> dict:
        """Ingest raw journal lines streamed by a node; verify each first.

        A line must parse as a JSON object and pass the shared checksum
        rule before it is written (verbatim) to the node's replica.
        Returns ``{"accepted": n, "rejected": n}``.
        """
        path = self._journal_path(node_id)
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
                path.parent.mkdir(parents=True, exist_ok=True)
                with path.open("a", encoding="utf-8") as handle:
                    for line in accepted:
                        handle.write(line + "\n")
                    handle.flush()
        if accepted:
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
        path = self._journal_path(node_id)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
        _OBS_LINES.inc(outcome="accepted")

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def _records(self, node_id: str) -> list[dict]:
        path = self._journal_path(node_id)
        with self._lock:
            if not path.exists():
                return []
            with path.open(encoding="utf-8") as handle:
                lines = handle.readlines()
        records: list[dict] = []
        for raw in lines:
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            # Verified at ingest; re-verified here so a corrupted replica
            # file (torn tail after a gateway crash) degrades to skipping
            # the bad line, mirroring the primary journal's behaviour.
            if isinstance(record, dict) and verify_checksum(record):
                records.append(record)
        return records

    def merged(self, node_id: str) -> tuple[list[str], dict[str, dict]]:
        """Fold a replica into per-job ``{"submit": ..., "finish": ...}``.

        Unlike the primary journal's fold, a duplicate submit never clears
        an already-recorded finish: the gateway's proxy-time submit line and
        the node's own streamed submit line arrive independently, and the
        job is finished once either stream says so.
        """
        merged: dict[str, dict] = {}
        order: list[str] = []
        for record in self._records(node_id):
            job_id = record.get("job_id")
            event = record.get("event")
            if not isinstance(job_id, str):
                continue
            if event == "submit":
                if job_id not in merged:
                    order.append(job_id)
                    merged[job_id] = {"submit": record, "finish": None}
                elif merged[job_id]["submit"] is None:
                    merged[job_id]["submit"] = record
                else:
                    # Duplicate submit (gateway-authored + node-streamed):
                    # keep the first, but carry over a gateway_id so chained
                    # failover can recover the original gateway job id
                    # whichever line won the fold.
                    kept = merged[job_id]["submit"]
                    if "gateway_id" not in kept and "gateway_id" in record:
                        kept = dict(kept)
                        kept["gateway_id"] = record["gateway_id"]
                        merged[job_id]["submit"] = kept
            elif event in _FINISH_EVENTS:
                if job_id not in merged:
                    order.append(job_id)
                    merged[job_id] = {"submit": None, "finish": record}
                else:
                    merged[job_id]["finish"] = record
        return order, merged

    def unfinished(self, node_id: str) -> list[dict]:
        """Submit records with no finish line — the set failover replays."""
        order, merged = self.merged(node_id)
        return [
            merged[job_id]["submit"]
            for job_id in order
            if merged[job_id]["finish"] is None
            and isinstance(merged[job_id]["submit"], dict)
        ]

    def job_view(self, node_id: str, job_id: str) -> dict | None:
        """The replica's view of one job (``{"submit", "finish"}``) or None."""
        _, merged = self.merged(node_id)
        return merged.get(job_id)

    def node_ids(self) -> list[str]:
        root = self.directory / "replicas"
        with self._lock:
            if not root.exists():
                return []
            return sorted(
                entry.name for entry in root.iterdir() if entry.is_dir()
            )
