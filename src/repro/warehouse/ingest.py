"""Ingest results into the warehouse: campaign runs, checkpoints, node caches.

Three source shapes, all keyed on the provenance digests the rest of the
stack already stamps on every result:

* **Campaign run directory** — a ``CampaignRunner``/``CampaignDispatcher``
  run dir: ``results/<digest>.json`` checkpoints, identity from
  ``manifest.json``.  Each checkpoint carries its cell/grid/scenario/params
  and the result payload.
* **Bare checkpoint file(s)** — one ``<digest>.json`` checkpoint, or a
  directory of them (a ``results/`` dir copied off a shard).
* **Service node directory** — a ``repro serve --journal DIR`` directory:
  the journal's ``submit`` lines provide scenario/params/digest and the
  persistent cache under ``DIR/cache`` provides the payloads, so results
  born from ad-hoc service traffic are queryable too.  The journal is read
  with :func:`repro.service.journal.read_records`: lines that fail their
  checksum are skipped, never ingested.

Ingest is **idempotent by digest**: a cell whose digest is already present
is counted as a duplicate and skipped, so re-running ingest (or ingesting
the same campaign from two shards' directories) adds zero rows.  Torn or
otherwise invalid checkpoint files are skipped and counted — ingest of a
partially-written run directory never crashes.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..eval.reporting import flatten_scalars, to_jsonable
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics

__all__ = ["IngestError", "IngestStats", "ingest_path", "ingest_paths", "ingest_run_dir"]

_INGESTED = get_metrics().get("repro_warehouse_ingested_total")


class IngestError(ValueError):
    """The path is not an ingestable source (no checkpoints, no journal)."""


@dataclass
class IngestStats:
    """Counters for one ingest pass (summed over sources by the CLI)."""

    sources: int = 0
    inserted: int = 0
    duplicates: int = 0
    invalid: int = 0
    invalid_files: list[str] = field(default_factory=list)

    def merge(self, other: "IngestStats") -> "IngestStats":
        """Fold another pass's counters into this one (returns self)."""
        self.sources += other.sources
        self.inserted += other.inserted
        self.duplicates += other.duplicates
        self.invalid += other.invalid
        self.invalid_files.extend(other.invalid_files)
        return self

    def to_jsonable(self) -> dict:
        """The stats as a plain JSON object (the CLI's ``--json`` output)."""
        return {
            "sources": self.sources,
            "inserted": self.inserted,
            "duplicates": self.duplicates,
            "invalid": self.invalid,
            "invalid_files": list(self.invalid_files),
        }


def _extract_codec(params: dict, result: Any) -> str | None:
    """Best-effort codec/backend identity of a cell, for the ``codec`` column.

    ``codec_compress`` results carry ``codec``, ``quantize_tensor`` carries
    ``backend`` (every backend name is also a codec name); campaign ``codec:``
    grids put the codec in the params.  Cells without either (experiments,
    simulate) have no codec identity and store NULL.
    """
    for source in (result if isinstance(result, dict) else {}, params):
        for key in ("codec", "backend"):
            value = source.get(key)
            if isinstance(value, str) and value:
                return value
    return None


def _metric_rows(digest: str, params: dict, result: Any) -> list[tuple[str, str, Any]]:
    """Flatten one cell into ``metrics`` rows: result leaves + ``params.*``.

    Booleans become integers (SQLite has no boolean storage class and
    ``sqlite3`` would store them as such anyway); non-scalar leaves are
    already scalars after :func:`flatten_scalars`.
    """
    leaves = flatten_scalars(result)
    leaves.update(flatten_scalars(params, prefix="params"))
    rows = []
    for name, value in leaves.items():
        if isinstance(value, bool):
            value = int(value)
        rows.append((digest, name, value))
    return rows


def _ingest_cell(
    conn: sqlite3.Connection,
    run_id: int,
    digest: str,
    scenario: str,
    params: dict,
    result: Any,
    cell: str | None = None,
    grid: str | None = None,
) -> bool:
    """Insert one cell (and its metrics) unless its digest already exists."""
    params = to_jsonable(params)
    result = to_jsonable(result)
    cursor = conn.execute(
        "INSERT INTO cells (digest, run_id, cell, grid, scenario, codec, params, result) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?) ON CONFLICT(digest) DO NOTHING",
        (
            digest,
            run_id,
            cell,
            grid,
            scenario,
            _extract_codec(params, result),
            json.dumps(params, sort_keys=True),
            json.dumps(result, sort_keys=True),
        ),
    )
    if cursor.rowcount == 0:
        _INGESTED.inc(outcome="duplicate")
        return False
    conn.executemany(
        "INSERT INTO metrics (digest, name, value) VALUES (?, ?, ?)",
        _metric_rows(digest, params, result),
    )
    _INGESTED.inc(outcome="inserted")
    return True


def _run_row(
    conn: sqlite3.Connection,
    source: str,
    run_dir: str,
    campaign: str | None,
    spec_digest: str | None,
) -> int:
    """Find or create the ``runs`` row for one ingest source; return its id."""
    conn.execute(
        "INSERT INTO runs (source, run_dir, campaign, spec_digest) "
        "VALUES (?, ?, ?, ?) ON CONFLICT(source, run_dir, spec_digest) DO NOTHING",
        (source, run_dir, campaign, spec_digest),
    )
    row = conn.execute(
        "SELECT run_id FROM runs WHERE source = ? AND run_dir = ? "
        "AND spec_digest IS ?",
        (source, run_dir, spec_digest),
    ).fetchone()
    return int(row[0])


def _load_checkpoint(path: Path) -> dict | None:
    """Parse one checkpoint file; ``None`` for torn/invalid content."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict):
        return None
    if not isinstance(payload.get("digest"), str) or not payload["digest"]:
        return None
    if not isinstance(payload.get("scenario"), str) or not payload["scenario"]:
        return None
    if not isinstance(payload.get("params"), dict) or "result" not in payload:
        return None
    return payload


def _ingest_checkpoint_files(
    conn: sqlite3.Connection, run_id: int, files: list[Path], stats: IngestStats
) -> None:
    """Ingest a list of checkpoint files, skipping (and counting) bad ones."""
    for path in sorted(files):
        payload = _load_checkpoint(path)
        if payload is None:
            stats.invalid += 1
            stats.invalid_files.append(str(path))
            _INGESTED.inc(outcome="invalid")
            continue
        inserted = _ingest_cell(
            conn,
            run_id,
            payload["digest"],
            payload["scenario"],
            payload["params"],
            payload["result"],
            cell=payload.get("cell"),
            grid=payload.get("grid"),
        )
        stats.inserted += inserted
        stats.duplicates += not inserted


def ingest_run_dir(conn: sqlite3.Connection, run_dir: str | Path) -> IngestStats:
    """Ingest one campaign run directory (``results/*.json`` checkpoints).

    Campaign identity (name + spec digest) comes from ``manifest.json``;
    a directory missing it (e.g. a copied-off ``results/`` dir) is ingested
    with NULL identity.  Partial runs are fine — whatever checkpoints exist
    are ingested, and a later re-ingest picks up only the new ones.
    """
    run_dir = Path(run_dir)
    results_dir = run_dir / "results" if (run_dir / "results").is_dir() else run_dir
    # A run dir's own housekeeping files are not checkpoints; skip them when
    # globbing a directory that holds its checkpoints at the top level.
    housekeeping = {"manifest.json", "spec.json", "report.json", "state.json"}
    files = [
        path for path in results_dir.glob("*.json") if path.name not in housekeeping
    ]
    campaign = spec_digest = None
    manifest_path = run_dir / "manifest.json"
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            campaign = manifest.get("campaign")
            spec_digest = manifest.get("spec_digest")
        except (OSError, json.JSONDecodeError):
            pass  # identity is best-effort; the checkpoints still ingest
    stats = IngestStats(sources=1)
    with obs_trace.span(
        "warehouse.ingest", attrs={"source": "campaign", "run_dir": str(run_dir)}
    ):
        with conn:
            run_id = _run_row(conn, "campaign", str(run_dir), campaign, spec_digest)
            _ingest_checkpoint_files(conn, run_id, files, stats)
    return stats


def _ingest_journal_dir(conn: sqlite3.Connection, directory: Path) -> IngestStats:
    """Ingest a ``repro serve --journal`` directory: journal + cache join.

    The journal's ``submit`` lines carry each job's scenario, params, and
    digest; the persistent cache holds the payload under
    ``cache/<digest>.json``.  Only digests with a cached payload ingest
    (an unfinished or uncached job has no result to warehouse).  The
    journal is read with the service's own reader, so a line that fails its
    checksum is skipped like any other corrupt line — the node's replay
    owns quarantine.
    """
    # Deferred: importing the service stack would slow every warehouse query.
    from ..service.journal import read_records

    journal_path = directory / "journal.jsonl"
    cache_dir = directory / "cache"
    stats = IngestStats(sources=1)
    submissions: dict[str, tuple[str, dict]] = {}
    for record in read_records(journal_path):
        if record.get("event") != "submit":
            continue
        digest, scenario, params = (
            record.get("digest"), record.get("type"), record.get("params")
        )
        if isinstance(digest, str) and isinstance(scenario, str) and isinstance(params, dict):
            submissions[digest] = (scenario, params)
    with obs_trace.span(
        "warehouse.ingest", attrs={"source": "service", "run_dir": str(directory)}
    ):
        with conn:
            run_id = _run_row(conn, "service", str(directory), None, None)
            for digest in sorted(submissions):
                scenario, params = submissions[digest]
                payload_path = cache_dir / f"{digest}.json"
                if not payload_path.is_file():
                    continue
                try:
                    result = json.loads(payload_path.read_text(encoding="utf-8"))
                except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                    stats.invalid += 1
                    stats.invalid_files.append(str(payload_path))
                    _INGESTED.inc(outcome="invalid")
                    continue
                inserted = _ingest_cell(conn, run_id, digest, scenario, params, result)
                stats.inserted += inserted
                stats.duplicates += not inserted
    return stats


def ingest_path(conn: sqlite3.Connection, path: str | Path) -> IngestStats:
    """Ingest whatever ``path`` is: run dir, node dir, checkpoint file or dir.

    Dispatch order: a directory with a ``journal.jsonl`` is a service node
    directory; a directory with checkpoints (``results/`` or ``*.json``
    directly) is a campaign run dir; a single ``.json`` file is one
    checkpoint.  Anything else raises :class:`IngestError`.
    """
    path = Path(path)
    if path.is_dir():
        if (path / "journal.jsonl").is_file():
            return _ingest_journal_dir(conn, path)
        if (path / "results").is_dir() or list(path.glob("*.json")):
            return ingest_run_dir(conn, path)
        raise IngestError(
            f"{path} has neither checkpoints (results/*.json) nor a journal.jsonl"
        )
    if path.is_file():
        stats = IngestStats(sources=1)
        with obs_trace.span(
            "warehouse.ingest", attrs={"source": "checkpoint", "run_dir": str(path)}
        ):
            with conn:
                run_id = _run_row(conn, "checkpoint", str(path.parent), None, None)
                _ingest_checkpoint_files(conn, run_id, [path], stats)
        return stats
    raise IngestError(f"{path} does not exist")


def ingest_paths(conn: sqlite3.Connection, paths: list[str | Path]) -> IngestStats:
    """Ingest several sources into one warehouse; returns merged stats."""
    stats = IngestStats()
    for path in paths:
        stats.merge(ingest_path(conn, path))
    return stats
