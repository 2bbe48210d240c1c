"""Results-warehouse tests: schema migrations, idempotent ingest, queries.

The load-bearing properties: ingest is idempotent by provenance digest
(re-ingesting a run — or the same campaign from two directories — adds zero
rows), torn checkpoint files are skipped and counted rather than crashing
the pass, and one filter syntax answers identically through the query layer
wherever it is surfaced.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro import warehouse
from repro.campaign import CampaignRunner, parse_spec
from repro.service.journal import checksummed_line

#: Four fast deterministic codec cells with rich metric payloads.
SPEC = {
    "name": "wh-test",
    "grids": [
        {
            "name": "codecs",
            "scenario": "codec_compress",
            "params": {"rows": 16, "cols": 32, "seed": 0},
            "sweep": {"codec": ["prune", "ptq"], "scale": [1.0, 2.0]},
        }
    ],
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("wh-run")
    runner = CampaignRunner(parse_spec(SPEC), path, jobs=1)
    runner.run()
    return path


@pytest.fixture()
def conn():
    connection = warehouse.connect(":memory:")
    yield connection
    connection.close()


class TestSchema:
    def test_connect_applies_migrations(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        connection = warehouse.connect(db)
        assert warehouse.schema_version(connection) == warehouse.SCHEMA_VERSION
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert {"runs", "cells", "metrics"} <= tables
        connection.close()

    def test_reopen_is_a_noop(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        warehouse.connect(db).close()
        connection = warehouse.connect(db)
        assert warehouse.schema_version(connection) == warehouse.SCHEMA_VERSION
        connection.close()

    def test_newer_schema_is_rejected(self, tmp_path):
        db = tmp_path / "wh.sqlite"
        connection = warehouse.connect(db)
        connection.execute(f"PRAGMA user_version = {warehouse.SCHEMA_VERSION + 1}")
        connection.close()
        with pytest.raises(warehouse.SchemaError, match="newer"):
            warehouse.connect(db)
        with pytest.raises(warehouse.SchemaError, match="newer"):
            warehouse.connect_readonly(db)

    def test_readonly_requires_existing_warehouse(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            warehouse.connect_readonly(tmp_path / "missing.sqlite")
        plain = tmp_path / "plain.sqlite"
        sqlite3.connect(plain).close()  # a database, but not a warehouse
        with pytest.raises(warehouse.SchemaError, match="not a repro warehouse"):
            warehouse.connect_readonly(plain)

    def test_readonly_rejects_writes(self, tmp_path, run_dir):
        db = tmp_path / "wh.sqlite"
        connection = warehouse.connect(db)
        warehouse.ingest_run_dir(connection, run_dir)
        connection.close()
        readonly = warehouse.connect_readonly(db)
        with pytest.raises(sqlite3.OperationalError):
            readonly.execute("DELETE FROM cells")
        readonly.close()


class TestIngest:
    def test_campaign_run_dir(self, conn, run_dir):
        stats = warehouse.ingest_run_dir(conn, run_dir)
        assert stats.inserted == 4
        assert stats.duplicates == stats.invalid == 0
        run = conn.execute("SELECT * FROM runs").fetchone()
        assert run["source"] == "campaign"
        assert run["campaign"] == "wh-test"
        assert run["spec_digest"]
        cell = conn.execute("SELECT * FROM cells LIMIT 1").fetchone()
        assert cell["scenario"] == "codec_compress"
        assert cell["codec"] in ("prune", "ptq")

    def test_reingest_is_idempotent_by_digest(self, conn, run_dir):
        warehouse.ingest_run_dir(conn, run_dir)
        before = conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        stats = warehouse.ingest_run_dir(conn, run_dir)
        assert stats.inserted == 0
        assert stats.duplicates == 4
        assert conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0] == before

    def test_torn_checkpoint_is_skipped_and_counted(self, conn, run_dir, tmp_path):
        import shutil

        copy = tmp_path / "torn-run"
        shutil.copytree(run_dir, copy)
        torn = copy / "results" / "torn.json"
        torn.write_text('{"digest": "x", "scena')  # a killed writer's torso
        (copy / "results" / "noise.json").write_text('["not", "a", "checkpoint"]')
        stats = warehouse.ingest_run_dir(conn, copy)
        assert stats.inserted == 4
        assert stats.invalid == 2
        assert str(torn) in stats.invalid_files

    def test_checkpoint_missing_required_fields_is_invalid(self, conn, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"digest": "d", "params": {}, "result": 1}))
        stats = warehouse.ingest_path(conn, bad)  # no scenario
        assert stats.invalid == 1 and stats.inserted == 0

    def test_single_checkpoint_file(self, conn, run_dir):
        checkpoint = sorted((run_dir / "results").glob("*.json"))[0]
        stats = warehouse.ingest_path(conn, checkpoint)
        assert stats.inserted == 1
        run = conn.execute("SELECT * FROM runs").fetchone()
        assert run["source"] == "checkpoint"

    def test_journal_dir_joins_submits_with_cache(self, conn, tmp_path):
        node = tmp_path / "node"
        (node / "cache").mkdir(parents=True)
        records = [
            {"event": "submit", "job_id": "job-1", "type": "codec_compress",
             "params": {"codec": "prune"}, "digest": "aaa"},
            {"event": "submit", "job_id": "job-2", "type": "codec_compress",
             "params": {"codec": "ptq"}, "digest": "bbb"},
            {"event": "submit", "job_id": "job-3", "type": "codec_compress",
             "params": {}, "digest": "ccc"},  # never finished: no cache file
        ]
        (node / "journal.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\nnot json\n"
        )
        (node / "cache" / "aaa.json").write_text(json.dumps({"mse": 0.5}))
        (node / "cache" / "bbb.json").write_text('{"torn')  # corrupt payload
        stats = warehouse.ingest_path(conn, node)
        assert stats.inserted == 1
        assert stats.invalid == 1
        row = conn.execute("SELECT * FROM cells").fetchone()
        assert row["digest"] == "aaa"
        assert conn.execute("SELECT * FROM runs").fetchone()["source"] == "service"

    def test_journal_dir_skips_lines_failing_their_checksum(self, conn, tmp_path):
        node = tmp_path / "node"
        (node / "cache").mkdir(parents=True)
        intact = checksummed_line(
            {"event": "submit", "job_id": "job-1", "type": "quantize_tensor",
             "params": {"rows": 8, "seed": 0}, "digest": "aaa"}
        )
        # Edited after its crc32 was computed: the params no longer match
        # the digest, so the line must not be warehoused under it.
        tampered = checksummed_line(
            {"event": "submit", "job_id": "job-2", "type": "quantize_tensor",
             "params": {"rows": 8, "seed": 1}, "digest": "bbb"}
        ).replace('"seed": 1', '"seed": 7')
        (node / "journal.jsonl").write_text(intact + "\n" + tampered + "\n")
        for digest in ("aaa", "bbb"):
            (node / "cache" / f"{digest}.json").write_text(json.dumps({"mse": 0.5}))
        stats = warehouse.ingest_path(conn, node)
        assert stats.inserted == 1
        digests = [row["digest"] for row in conn.execute("SELECT digest FROM cells")]
        assert digests == ["aaa"]

    def test_unrecognized_path_raises(self, conn, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(warehouse.IngestError):
            warehouse.ingest_path(conn, empty)
        with pytest.raises(warehouse.IngestError):
            warehouse.ingest_path(conn, tmp_path / "nowhere")

    def test_ingest_paths_merges_stats(self, conn, run_dir):
        checkpoints = sorted((run_dir / "results").glob("*.json"))[:2]
        stats = warehouse.ingest_paths(conn, checkpoints)
        assert stats.sources == 2
        assert stats.inserted == 2

    def test_runner_auto_ingests_on_report(self, tmp_path):
        db = tmp_path / "auto.sqlite"
        runner = CampaignRunner(
            parse_spec(SPEC), tmp_path / "run", jobs=1, ingest_db=db
        )
        runner.run()  # writes the report, which triggers the ingest
        connection = warehouse.connect_readonly(db)
        assert connection.execute("SELECT COUNT(*) FROM cells").fetchone()[0] == 4
        connection.close()


class TestFilterParsing:
    def test_operators_and_json_values(self):
        assert warehouse.parse_filter("mse<0.5") == warehouse.Filter("mse", "<", 0.5)
        assert warehouse.parse_filter("codec=prune") == warehouse.Filter(
            "codec", "=", "prune"
        )
        assert warehouse.parse_filter("params.bits>=6").value == 6
        assert warehouse.parse_filter("cell!=\"g/0\"").value == "g/0"
        # Booleans become the 0/1 the metrics table stores.
        assert warehouse.parse_filter("params.flag=true").value == 1

    @pytest.mark.parametrize(
        "text", ["bogus", "=5", "a<", "a b", "name~3", "a={\"b\":1}", "a=[1]"]
    )
    def test_bad_expressions_raise(self, text):
        with pytest.raises(warehouse.QueryError):
            warehouse.parse_filter(text)


class TestQuery:
    @pytest.fixture()
    def loaded(self, conn, run_dir):
        warehouse.ingest_run_dir(conn, run_dir)
        return conn

    def test_identity_and_metric_filters_compose(self, loaded):
        rows, total = warehouse.query_cells(
            loaded,
            warehouse.parse_filters(["codec=prune", "params.scale=1.0"]),
        )
        assert total == len(rows) == 1
        assert rows[0]["codec"] == "prune"
        assert rows[0]["params.scale"] == 1.0

    def test_rows_keep_identity_over_result_leaves(self, loaded):
        # codec_compress results embed their own "digest" field; the row's
        # digest column must stay the provenance digest the cell is keyed on.
        rows, _ = warehouse.query_cells(loaded)
        stored = {
            row[0] for row in loaded.execute("SELECT digest FROM cells")
        }
        assert {row["digest"] for row in rows} == stored

    def test_sort_offset_limit_and_total(self, loaded):
        rows, total = warehouse.query_cells(
            loaded, sort="metrics.mse", descending=True, offset=1, limit=2
        )
        assert total == 4
        assert len(rows) == 2
        values = [row["metrics.mse"] for row in rows]
        assert values == sorted(values, reverse=True)

    def test_columns_restriction_is_rectangular(self, loaded):
        rows, _ = warehouse.query_cells(
            loaded, columns=["digest", "no_such_metric"]
        )
        assert all(set(row) == {"digest", "no_such_metric"} for row in rows)
        assert all(row["no_such_metric"] is None for row in rows)

    def test_missing_metric_never_matches(self, loaded):
        rows, total = warehouse.query_cells(
            loaded, [warehouse.parse_filter("no_such_metric!=1")]
        )
        assert total == 0 and rows == []

    def test_invalid_options_raise(self, loaded):
        with pytest.raises(warehouse.QueryError):
            warehouse.query_cells(loaded, offset=-1)
        with pytest.raises(warehouse.QueryError):
            warehouse.query_cells(loaded, limit=-1)

    def test_cell_detail_round_trips_payloads(self, loaded):
        digest = loaded.execute("SELECT digest FROM cells").fetchone()[0]
        detail = warehouse.cell_detail(loaded, digest)
        assert detail["digest"] == digest
        assert isinstance(detail["params"], dict)
        assert isinstance(detail["result"], dict)
        assert detail["metrics"]["metrics.mse"] == pytest.approx(
            detail["result"]["metrics"]["mse"]
        )
        assert warehouse.cell_detail(loaded, "absent") is None

    def test_default_columns_track_references(self):
        filters = warehouse.parse_filters(["metrics.mse<1", "codec=prune"])
        columns = warehouse.default_columns(filters, "metrics.effective_bits")
        assert columns == [
            "digest", "cell", "scenario", "codec",
            "metrics.mse", "metrics.effective_bits",
        ]


class TestPareto:
    ROWS = [
        {"digest": "a", "bits": 2.0, "mse": 1.0},
        {"digest": "b", "bits": 3.0, "mse": 0.5},
        {"digest": "c", "bits": 3.0, "mse": 0.8},   # dominated by b
        {"digest": "d", "bits": 5.0, "mse": 0.6},   # dominated by b
        {"digest": "e", "bits": 6.0, "mse": 0.1},
        {"digest": "f", "bits": 1.0, "mse": None},  # non-numeric: excluded
    ]

    def test_minimize_both(self):
        front = warehouse.pareto_front(self.ROWS, "bits", "mse")
        assert [row["digest"] for row in front] == ["a", "b", "e"]

    def test_maximize_axis(self):
        # In self.ROWS, "e" has both the lowest mse and the highest bits, so
        # maximizing bits collapses the frontier to it alone.
        front = warehouse.pareto_front(self.ROWS, "bits", "mse", maximize_x=True)
        assert [row["digest"] for row in front] == ["e"]
        # With a genuine trade-off, maximize keeps the accuracy-per-bit wins.
        rows = [
            {"digest": "lo", "bits": 2.0, "mse": 0.1},
            {"digest": "mid", "bits": 3.0, "mse": 0.5},  # dominated by "hi"
            {"digest": "hi", "bits": 4.0, "mse": 0.3},
        ]
        front = warehouse.pareto_front(rows, "bits", "mse", maximize_x=True)
        assert [row["digest"] for row in front] == ["hi", "lo"]

    def test_empty_and_all_excluded(self):
        assert warehouse.pareto_front([], "x", "y") == []
        assert warehouse.pareto_front([{"x": "text", "y": 1}], "x", "y") == []


class TestObservability:
    def test_ingest_and_query_record_metrics(self, conn, run_dir):
        from repro.obs.metrics import get_metrics

        registry = get_metrics()
        ingested = registry.counter(
            "repro_warehouse_ingested_total", labelnames=("outcome",)
        )
        before = ingested.value(outcome="inserted")
        warehouse.ingest_run_dir(conn, run_dir)
        assert ingested.value(outcome="inserted") == before + 4
        histogram = registry.histogram("repro_warehouse_query_seconds")
        count_before = histogram.count()
        warehouse.query_cells(conn)
        assert histogram.count() == count_before + 1
