"""Append-only JSONL job journal: the service's durable memory.

Every job the worker pool accepts is journaled as a ``submit`` line and later
as a ``done``/``failed``/``cancelled`` line, one strict-JSON object per line,
flushed on write.  Each line carries a ``crc32`` checksum over its canonical
payload, so replay can tell a record that was *written wrong* (bit rot, a
partially overwritten block, manual editing) from one that was merely torn
by a crash.

Every read of a journal — node replay and compaction here, the gateway's
replica journals, warehouse ingest of a node directory — goes through one
streaming reader, :func:`read_records`, and one fold, :func:`fold_jobs`,
with one rule for a repeated job id: the same digest is a duplicate submit,
a different digest a new job reusing the id.

Corruption never aborts a replay.  Bad lines — mid-file garbage, a truncated
final record, a checksum mismatch, a non-object — are **quarantined** by the
node's own journal:
appended verbatim to ``journal.quarantine.jsonl`` beside the journal with the
reason and byte offset, counted in ``repro_journal_quarantined_total{reason}``,
and skipped.  (Replica and warehouse reads skip them without a record.)
Everything parseable replays:

* ``done`` jobs reappear as DONE under their historical ids, their results
  served from the (persistent) result cache — nothing is recomputed;
* ``failed``/``cancelled`` jobs reappear in their terminal states with the
  recorded error;
* unfinished jobs (a ``submit`` line without a finish line — the queue the
  crash destroyed) are re-enqueued under their historical ids and simply run
  again, where the content-hash cache still deduplicates any part of the
  work that was persisted before the crash.  A journaled ``deadline_s``
  re-arms with its full budget (the old wall clock is meaningless after a
  restart).

Journals grow forever without help; :meth:`JobJournal.compact` snapshots the
merged state (one ``submit`` + at most one finish line per job, oldest
fully-finished jobs beyond a retention bound dropped entirely) and atomically
replaces the file.  ``repro journal compact DIR`` exposes it on the CLI.

``repro serve --journal DIR`` wires this up end to end (and defaults the
result cache's persistence into ``DIR/cache`` so replayed DONE jobs keep
their payloads).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..chaos.plan import maybe_fail
from ..obs.metrics import get_metrics
from .jobs import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .workers import WorkerPool

__all__ = [
    "JobJournal", "checksummed_line", "fold_jobs", "parse_line", "read_records",
    "verify_checksum",
]

_OBS_APPENDS = get_metrics().get("repro_journal_appends_total")
_OBS_WRITE_ERRORS = get_metrics().get("repro_journal_write_errors_total")
_OBS_QUARANTINED = get_metrics().get("repro_journal_quarantined_total")
_OBS_SINK_ERRORS = get_metrics().get("repro_journal_sink_errors_total")


#: Journal event name per terminal job state.
_FINISH_EVENTS = {
    JobState.DONE: "done",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
}

#: How many finished jobs a compaction keeps by default — matches the job
#: store's finished-history bound, so a compacted journal replays the same
#: window a live process would still be holding.
DEFAULT_KEEP_FINISHED = 1024


def checksummed_line(record: dict) -> str:
    """Serialize ``record`` with a ``crc32`` field over its canonical JSON.

    The record is serialized once and the field spliced in as its last key.
    Lines written before that carry ``crc32`` in sorted key order; the
    checksum covers the record without the field either way, so
    :func:`verify_checksum` accepts both.  ``record`` must not hold a
    ``crc32`` key itself.

    Public: the gateway's replication store writes replica journal lines in
    exactly this format so one verifier covers both.
    """
    payload = json.dumps(record, sort_keys=True, allow_nan=False)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f'{payload[:-1]}{", " if record else ""}"crc32": {crc}}}'


def verify_checksum(record: dict) -> bool:
    """True when the record has no checksum (legacy line) or it matches.

    Mutates ``record`` (the ``crc32`` field is popped); pass a copy to keep
    the original.  Public for the same reason as :func:`checksummed_line`:
    replicated journal lines are verified with the identical rule.
    """
    if "crc32" not in record:
        return True
    claimed = record.pop("crc32")
    payload = json.dumps(record, sort_keys=True, allow_nan=False)
    return claimed == (zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF)


def parse_line(line: str | bytes) -> tuple[dict | None, str | None]:
    """Parse and verify one stripped journal line.

    Returns ``(record, None)`` with the ``crc32`` field popped, or
    ``(None, reason)`` with reason ``unparseable``, ``not_object`` or
    ``checksum_mismatch``.
    """
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
        return None, "unparseable"
    if not isinstance(record, dict):
        return None, "not_object"
    if not verify_checksum(record):
        return None, "checksum_mismatch"
    return record, None


def read_records(
    path: str | os.PathLike, on_bad: Callable[[str, int, str], None] | None = None
) -> Iterator[dict]:
    """Stream a journal's intact records, oldest first.

    The file size is read when this is called and only the lines below it
    are streamed, one at a time: a writer that appends whole, flushed lines
    under a lock lets a reader take the size under that lock and parse
    without it.  A bad line is passed to ``on_bad(line, byte_offset,
    reason)`` — the :func:`parse_line` reasons, or ``truncated`` for an
    unparseable final line with no newline (the only corruption a crash
    can cause) — and skipped.  A missing file yields nothing.
    """
    try:
        size = os.stat(path).st_size
    except FileNotFoundError:
        return iter(())
    return _stream_records(Path(path), size, on_bad)


def _stream_records(
    path: Path, size: int, on_bad: Callable[[str, int, str], None] | None
) -> Iterator[dict]:
    offset = 0
    with path.open("rb") as handle:
        for raw in handle:
            if offset + len(raw) > size:
                return  # appended after the size was read
            line = raw.strip()
            if line:
                record, reason = parse_line(line)
                if record is not None:
                    yield record
                elif on_bad is not None:
                    if not raw.endswith(b"\n") and reason == "unparseable":
                        reason = "truncated"
                    on_bad(line.decode("utf-8", "replace"), offset, reason)
            offset += len(raw)


def fold_jobs(records: Iterable[dict], keep_finished: bool = True) -> dict[str, dict]:
    """Fold records into ``{job_id: {"submit": ..., "finish": ...}}``.

    Entries are in first-seen order.  A ``submit`` whose digest matches the
    entry's (its submit's, else its finish's) is a duplicate — the gateway
    and the node each write one per routed job: the first submit is kept, a
    ``gateway_id`` carried over, the finish line kept.  A ``submit`` with a
    different digest is a new job reusing the id (a node without a journal
    restarts its ids) and replaces the entry.  A finish line with no submit
    before it makes a finish-only entry (``"submit": None``).

    ``keep_finished=False`` shrinks a finished entry to its digest
    (``{"submit": None, "finish": {"digest": ...}}``), so the fold holds
    only unfinished work however long the journal is.
    """
    jobs: dict[str, dict] = {}
    for record in records:
        job_id = record.get("job_id")
        if not isinstance(job_id, str):
            continue
        event = record.get("event")
        entry = jobs.get(job_id)
        if event == "submit":
            if entry is None or _digest(entry) != record.get("digest"):
                jobs[job_id] = {"submit": record, "finish": None}
            elif entry["submit"] is None:
                if keep_finished:  # a shrunk entry stays shrunk
                    entry["submit"] = record
            elif "gateway_id" in record and "gateway_id" not in entry["submit"]:
                entry["submit"] = {**entry["submit"], "gateway_id": record["gateway_id"]}
        elif event in _FINISH_EVENTS.values():
            if not keep_finished:
                digest = record.get("digest") if entry is None else _digest(entry)
                jobs[job_id] = {"submit": None, "finish": {"digest": digest}}
            elif entry is None:
                jobs[job_id] = {"submit": None, "finish": record}
            else:
                entry["finish"] = record
    return jobs


def _digest(entry: dict) -> Any:
    return (entry["submit"] or entry["finish"]).get("digest")


class JobJournal:
    """Append-only ``journal.jsonl`` under one directory, with replay."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "journal.jsonl"
        self.quarantine_path = self.directory / "journal.quarantine.jsonl"
        self._lock = threading.Lock()
        self._handle = self.path.open("a", encoding="utf-8")
        self.write_errors = 0
        self.quarantined = 0
        self.sink_errors = 0
        #: Fan-out hooks called with each raw line after a successful local
        #: append — the gateway agent's replication stream attaches here.
        self._sinks: list = []

    # ------------------------------------------------------------------ #
    # Fan-out sinks (replication)
    # ------------------------------------------------------------------ #

    def add_sink(self, sink) -> None:
        """Register ``sink(raw_line)`` to observe every appended line.

        Sinks run *outside* the journal lock (a slow or blocked sink must not
        stall job submission) and are best-effort: a raising sink is counted
        (``sink_errors`` / ``repro_journal_sink_errors_total``) and skipped —
        the local append already succeeded, so durability never regresses.
        """
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def _fan_out(self, line: str) -> None:
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink(line)
            except Exception:  # noqa: BLE001 - sink faults must stay local
                self.sink_errors += 1
                _OBS_SINK_ERRORS.inc()

    # ------------------------------------------------------------------ #
    # Recording (called by the worker pool, best-effort)
    # ------------------------------------------------------------------ #

    def record(self, event: str, **fields: Any) -> None:
        """Append one checksummed event line.  Best-effort: a journal that
        cannot be written (full disk, non-JSON params) must not fail the job
        itself."""
        with self._lock:
            try:
                maybe_fail("journal.append")
                line = checksummed_line({"event": event, **fields})
                self._handle.write(line + "\n")
                self._handle.flush()
            except (TypeError, ValueError, OSError):
                self.write_errors += 1
                _OBS_WRITE_ERRORS.inc()
                return
        _OBS_APPENDS.inc(event=event)
        self._fan_out(line)

    def record_submit(self, job: Job) -> None:
        self.record(
            "submit",
            job_id=job.job_id,
            type=job.job_type,
            params=job.params,
            digest=job.digest,
            submitted_at=job.submitted_at,
            trace_id=job.trace_id,
            deadline_s=job.deadline_s,
        )

    def record_finish(self, job: Job) -> None:
        event = _FINISH_EVENTS.get(job.state)
        if event is None:  # pragma: no cover - finish called on live job
            return
        fields: dict[str, Any] = {"job_id": job.job_id, "digest": job.digest}
        if job.state is JobState.DONE:
            fields["cache_hit"] = job.cache_hit
        else:
            fields["error"] = job.error
        self.record(event, **fields)

    def close(self) -> None:
        with self._lock:
            self._handle.close()

    # ------------------------------------------------------------------ #
    # Reading / quarantine
    # ------------------------------------------------------------------ #

    def _quarantine(self, line: str, offset: int, reason: str) -> None:
        """Move one bad line aside (verbatim) instead of aborting replay."""
        self.quarantined += 1
        _OBS_QUARANTINED.inc(reason=reason)
        try:
            with self.quarantine_path.open("a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {"reason": reason, "offset": offset, "line": line},
                        sort_keys=True,
                    )
                    + "\n"
                )
        # Quarantine is itself best-effort; ``self.quarantined`` and the
        # quarantine counter were already incremented above, so the failure
        # stays visible even when this write is swallowed.
        except (OSError, ValueError, TypeError):  # repro: ignore[silent-except]
            pass

    def records(self) -> Iterator[dict]:
        """Yield every intact event line, oldest first, quarantining the rest
        (see :func:`read_records` for the corruption classes)."""
        return read_records(self.path, on_bad=self._quarantine)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def _jobs(self) -> dict[str, dict]:
        """The folded journal, without finish lines that have no submit."""
        return {
            job_id: entry
            for job_id, entry in fold_jobs(self.records()).items()
            if entry["submit"] is not None
        }

    def replay(self, pool: "WorkerPool") -> dict:
        """Rebuild the journaled jobs inside ``pool``; return replay stats."""
        jobs = self._jobs()
        stats = {"replayed": 0, "completed": 0, "failed": 0,
                 "cancelled": 0, "requeued": 0, "skipped": 0,
                 "quarantined": self.quarantined}
        for job_id, entry in jobs.items():
            submit = entry["submit"]
            finish = entry["finish"] or {}
            if (
                not isinstance(submit.get("type"), str)
                or not isinstance(submit.get("params"), dict)
                or not isinstance(submit.get("digest"), str)
            ):
                stats["skipped"] += 1
                continue
            state = None
            if finish.get("event") in _FINISH_EVENTS.values():
                state = JobState(finish["event"])
            trace_id = submit.get("trace_id")
            deadline = submit.get("deadline_s")
            job, requeued = pool.restore_job(
                job_id,
                submit["type"],
                submit["params"],
                submit["digest"],
                state=state,
                error=finish.get("error"),
                trace_id=trace_id if isinstance(trace_id, str) else None,
                deadline_s=deadline if isinstance(deadline, (int, float)) else None,
            )
            stats["replayed"] += 1
            if requeued:
                stats["requeued"] += 1
            elif job.state is JobState.DONE:
                stats["completed"] += 1
            elif job.state is JobState.CANCELLED:
                stats["cancelled"] += 1
            else:
                stats["failed"] += 1
        stats["quarantined"] = self.quarantined
        return stats

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def compact(self, keep_finished: int = DEFAULT_KEEP_FINISHED) -> dict:
        """Snapshot + truncate: rewrite the journal as its merged state.

        Each job collapses to its ``submit`` line plus at most one finish
        line; fully-finished jobs older than the newest ``keep_finished``
        are dropped entirely (their result payloads, if any, live on in the
        content-hash cache — only the job *record* is forgotten).  The new
        journal is written to a temp file, fsynced, and atomically swapped
        in, so a crash mid-compaction leaves the original intact.  Safe on a
        live journal: the write lock blocks appends for the duration.
        """
        if keep_finished < 0:
            raise ValueError("keep_finished must be >= 0")
        with self._lock:
            before_bytes = self.path.stat().st_size if self.path.exists() else 0
            jobs = self._jobs()
            finished_ids = [jid for jid, entry in jobs.items() if entry["finish"] is not None]
            dropped = set(finished_ids[: max(len(finished_ids) - keep_finished, 0)])
            tmp_path = self.path.with_suffix(".jsonl.tmp")
            with tmp_path.open("w", encoding="utf-8") as handle:
                for job_id, entry in jobs.items():
                    if job_id in dropped:
                        continue
                    # Records come out of the reader with crc32 popped.
                    handle.write(checksummed_line(entry["submit"]) + "\n")
                    if entry["finish"] is not None:
                        handle.write(checksummed_line(entry["finish"]) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp_path, self.path)
            self._handle = self.path.open("a", encoding="utf-8")
            after_bytes = self.path.stat().st_size
        return {
            "jobs": len(jobs),
            "kept_jobs": len(jobs) - len(dropped),
            "dropped_finished": len(dropped),
            "quarantined": self.quarantined,
            "bytes_before": before_bytes,
            "bytes_after": after_bytes,
        }
