"""Journal integrity: per-record checksums, corruption quarantine, compaction.

Satellite of the chaos PR: a journal with mid-file garbage, a torn final
record, and a checksum-mismatched line must replay cleanly — the bad lines
quarantined (with reasons) into ``journal.quarantine.jsonl``, counted in
``repro_journal_quarantined_total``, and everything intact replayed.
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.chaos import FaultPlan, clear_plan, install_plan
from repro.obs.metrics import get_metrics
from repro.service import JobJournal, JobState, ResultCache, ScenarioRegistry, WorkerPool
from repro.service.journal import DEFAULT_KEEP_FINISHED, checksummed_line
from repro.service.workers import job_digest


def make_registry(calls: list) -> ScenarioRegistry:
    registry = ScenarioRegistry()

    def echo(value=0):
        calls.append(value)
        return {"value": value}

    registry.add("echo", "echo the params", echo, {"value": 0})
    return registry


def make_pool(tmp_path, calls):
    journal = JobJournal(tmp_path)
    cache = ResultCache(max_entries=32, directory=tmp_path / "cache")
    pool = WorkerPool(make_registry(calls), cache=cache, max_workers=2, journal=journal)
    return pool, journal


def quarantine_reasons(tmp_path) -> list[str]:
    path = tmp_path / "journal.quarantine.jsonl"
    if not path.exists():
        return []
    return [json.loads(line)["reason"] for line in path.read_text().splitlines()]


class TestChecksums:
    def test_lines_carry_matching_crc32(self, tmp_path):
        pool, journal = make_pool(tmp_path, [])
        pool.run("echo", {"value": 1}, timeout=10)
        pool.shutdown()
        journal.close()
        for line in (tmp_path / "journal.jsonl").read_text().splitlines():
            record = json.loads(line)
            claimed = record.pop("crc32")
            payload = json.dumps(record, sort_keys=True, allow_nan=False)
            assert claimed == zlib.crc32(payload.encode()) & 0xFFFFFFFF

    def test_legacy_lines_without_crc_still_replay(self, tmp_path):
        # Journals written before checksumming carry no crc32 field; they
        # must replay as intact records, not as corruption.
        digest = job_digest("echo", {"value": 9})
        with (tmp_path / "journal.jsonl").open("w") as handle:
            handle.write(json.dumps({
                "event": "submit", "job_id": "job-000001", "type": "echo",
                "params": {"value": 9}, "digest": digest, "submitted_at": 0.0,
            }) + "\n")
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        stats = journal.replay(pool)
        assert stats["replayed"] == 1 and stats["quarantined"] == 0
        job = pool.store.get("job-000001")
        assert job.wait(10) and job.result == {"value": 9}
        pool.shutdown()
        journal.close()


class TestCorruptionQuarantine:
    def corrupt_journal(self, tmp_path):
        """One finished job, then: garbage, a tampered record, a torn tail."""
        pool, journal = make_pool(tmp_path, [])
        done = pool.run("echo", {"value": 1}, timeout=10)
        pool.shutdown()
        journal.close()

        path = tmp_path / "journal.jsonl"
        lines = path.read_text().splitlines()
        # A checksum mismatch: a valid line whose payload was edited later.
        tampered = json.loads(lines[0])
        tampered["type"] = "tampered"
        with path.open("w") as handle:
            for line in lines:
                handle.write(line + "\n")
            handle.write("NOT JSON: disk says hello\n")
            handle.write(json.dumps(tampered) + "\n")
            handle.write('["not", "an", "object"]\n')
            handle.write('{"event": "submit", "job_id": "job-9')  # torn tail
        return done

    def test_corrupt_lines_are_quarantined_not_fatal(self, tmp_path):
        counter = get_metrics().counter(
            "repro_journal_quarantined_total", "", ("reason",)
        )
        before = {
            reason: counter.value(reason=reason)
            for reason in ("unparseable", "checksum_mismatch", "not_object", "truncated")
        }
        done = self.corrupt_journal(tmp_path)

        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        stats = journal.replay(pool)
        pool.shutdown()

        assert stats["quarantined"] == 4 == journal.quarantined
        assert stats["replayed"] == 1
        replayed = pool.store.get(done.job_id)
        assert replayed.state is JobState.DONE and replayed.cache_hit
        assert calls == [], "an intact finished job must not recompute"

        reasons = quarantine_reasons(tmp_path)
        assert sorted(reasons) == [
            "checksum_mismatch", "not_object", "truncated", "unparseable"
        ]
        for reason in before:
            assert counter.value(reason=reason) == before[reason] + 1
        # The quarantine file preserves the bad lines verbatim for forensics.
        entries = [
            json.loads(line)
            for line in (tmp_path / "journal.quarantine.jsonl").read_text().splitlines()
        ]
        assert any(e["line"].startswith("NOT JSON") for e in entries)
        assert all(isinstance(e["offset"], int) for e in entries)
        journal.close()

    def test_truncated_tail_vs_mid_file_garbage_reasons(self, tmp_path):
        # Only the *final* line may be blamed on a crash; identical garbage
        # mid-file is bit rot and gets the harsher label.
        path = tmp_path / "journal.jsonl"
        with path.open("w") as handle:
            handle.write('{"event": "submit", "job_id": "job-1\n')  # mid-file
            handle.write(checksummed_line({"event": "noop"}) + "\n")
            handle.write('{"event": "submit", "job_id": "job-2')  # torn tail
        journal = JobJournal(tmp_path)
        list(journal.records())
        journal.close()
        assert quarantine_reasons(tmp_path) == ["unparseable", "truncated"]


class TestChaosJournalAppend:
    def test_injected_append_failure_never_fails_the_job(self, tmp_path):
        install_plan(FaultPlan.from_spec(
            [{"point": "journal.append", "mode": "error", "exception": "OSError"}]
        ))
        try:
            pool, journal = make_pool(tmp_path, [])
            job = pool.run("echo", {"value": 3}, timeout=10)
            assert job.state is JobState.DONE
            assert journal.write_errors >= 2  # submit + finish both injected
            pool.shutdown()
            journal.close()
        finally:
            clear_plan()


class TestCompaction:
    def run_jobs(self, tmp_path, count):
        pool, journal = make_pool(tmp_path, [])
        jobs = [pool.run("echo", {"value": v}, timeout=10) for v in range(count)]
        pool.shutdown()
        return jobs, journal

    def test_compact_merges_and_drops_old_finished_jobs(self, tmp_path):
        jobs, journal = self.run_jobs(tmp_path, 5)
        stats = journal.compact(keep_finished=2)
        journal.close()
        assert stats["jobs"] == 5 and stats["kept_jobs"] == 2
        assert stats["dropped_finished"] == 3
        assert stats["bytes_after"] < stats["bytes_before"]

        # The survivors are the *newest* finished jobs, checksummed again.
        fresh = JobJournal(tmp_path)
        records = list(fresh.records())
        fresh.close()
        assert fresh.quarantined == 0
        kept_ids = {r["job_id"] for r in records}
        assert kept_ids == {jobs[-1].job_id, jobs[-2].job_id}
        assert all("crc32" not in r for r in records)  # popped by verification

    def test_replay_after_compact_serves_kept_jobs(self, tmp_path):
        jobs, journal = self.run_jobs(tmp_path, 3)
        journal.compact(keep_finished=DEFAULT_KEEP_FINISHED)
        journal.close()

        calls: list = []
        pool, journal2 = make_pool(tmp_path, calls)
        stats = journal2.replay(pool)
        assert stats["completed"] == 3 and calls == []
        for job in jobs:
            assert pool.store.get(job.job_id).state is JobState.DONE
        pool.shutdown()
        journal2.close()

    def test_unfinished_jobs_survive_compaction(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record(
            "submit", job_id="job-000042", type="echo", params={"value": 7},
            digest=job_digest("echo", {"value": 7}), submitted_at=0.0,
        )
        stats = journal.compact(keep_finished=0)
        assert stats["kept_jobs"] == 1 and stats["dropped_finished"] == 0
        # The journal stays appendable after the atomic swap.
        journal.record("done", job_id="job-000042", digest="d", cache_hit=False)
        journal.close()
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert events == ["submit", "done"]

    def test_negative_keep_finished_rejected(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ValueError, match="keep_finished"):
            journal.compact(keep_finished=-1)
        journal.close()


class TestJournalCli:
    def test_compact_command_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        pool, journal = make_pool(tmp_path, [])
        for value in range(4):
            pool.run("echo", {"value": value}, timeout=10)
        pool.shutdown()
        journal.close()

        assert main(["journal", "compact", str(tmp_path),
                     "--keep-finished", "1", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kept_jobs"] == 1 and stats["dropped_finished"] == 3

    def test_missing_journal_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", "compact", str(tmp_path / "nope")]) == 1
        assert "no journal" in capsys.readouterr().err
