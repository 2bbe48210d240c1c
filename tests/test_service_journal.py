"""Tests for the append-only job journal and its restart replay."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import (
    JobJournal,
    JobState,
    ResultCache,
    ScenarioRegistry,
    WorkerPool,
    create_server,
)
from repro.service.workers import job_digest


def make_registry(calls: list) -> ScenarioRegistry:
    registry = ScenarioRegistry()

    def echo(value=0):
        calls.append(value)
        return {"value": value}

    def boom(value=0):
        raise RuntimeError("deliberate failure")

    registry.add("echo", "echo the params", echo, {"value": 0})
    registry.add("boom", "always fails", boom, {"value": 0})
    return registry


def make_pool(tmp_path, calls):
    journal = JobJournal(tmp_path)
    cache = ResultCache(max_entries=32, directory=tmp_path / "cache")
    pool = WorkerPool(make_registry(calls), cache=cache, max_workers=2, journal=journal)
    return pool, journal


class TestJournalRecording:
    def test_every_lifecycle_event_is_journaled(self, tmp_path):
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        done = pool.run("echo", {"value": 1}, timeout=10)
        failed = pool.run("boom", timeout=10)
        hit = pool.run("echo", {"value": 1}, timeout=10)  # cache hit
        pool.shutdown()
        journal.close()

        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        by_id = {}
        for event in events:
            by_id.setdefault(event["job_id"], []).append(event["event"])
        assert by_id[done.job_id] == ["submit", "done"]
        assert by_id[failed.job_id] == ["submit", "failed"]
        assert by_id[hit.job_id] == ["submit", "done"]
        hit_done = next(e for e in events if e["job_id"] == hit.job_id and e["event"] == "done")
        assert hit_done["cache_hit"] is True

    def test_journal_write_failure_does_not_fail_the_job(self, tmp_path):
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        journal._handle.close()  # simulate a dead journal disk
        job = pool.run("echo", {"value": 2}, timeout=10)
        assert job.state is JobState.DONE
        assert journal.write_errors >= 1
        pool.shutdown()


class TestJournalReplay:
    def test_kill_and_replay_round_trip(self, tmp_path):
        # First life: one finished, one failed job; then a submit line with
        # no finish line — the queue a kill would destroy.
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        done = pool.run("echo", {"value": 1}, timeout=10)
        failed = pool.run("boom", timeout=10)
        pool.shutdown()
        journal.record(
            "submit",
            job_id="job-000077",
            type="echo",
            params={"value": 7},
            digest=job_digest("echo", {"value": 7}),
            submitted_at=0.0,
        )
        journal.close()

        # Second life: replay must serve the finished job from the persisted
        # cache (no recompute), keep the failure, and re-run only the
        # unfinished job.
        calls2: list = []
        pool2, journal2 = make_pool(tmp_path, calls2)
        stats = journal2.replay(pool2)
        assert stats["replayed"] == 3
        assert stats["completed"] == 1 and stats["failed"] == 1 and stats["requeued"] == 1

        replayed = pool2.store.get(done.job_id)
        assert replayed.state is JobState.DONE and replayed.cache_hit
        assert replayed.result == {"value": 1}
        refailed = pool2.store.get(failed.job_id)
        assert refailed.state is JobState.FAILED
        assert "deliberate failure" in refailed.error

        requeued = pool2.store.get("job-000077")
        assert requeued.wait(10)
        assert requeued.state is JobState.DONE and requeued.result == {"value": 7}
        assert calls2 == [7], "only the unfinished job may recompute"
        pool2.shutdown()
        journal2.close()

    def test_new_jobs_after_replay_get_fresh_ids(self, tmp_path):
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        old = pool.run("echo", {"value": 1}, timeout=10)
        pool.shutdown()
        journal.close()

        pool2, journal2 = make_pool(tmp_path, [])
        journal2.replay(pool2)
        fresh = pool2.run("echo", {"value": 2}, timeout=10)
        assert fresh.job_id != old.job_id
        assert int(fresh.job_id.split("-")[1]) > int(old.job_id.split("-")[1])
        pool2.shutdown()
        journal2.close()

    def test_torn_final_line_is_skipped(self, tmp_path):
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        done = pool.run("echo", {"value": 1}, timeout=10)
        pool.shutdown()
        journal.close()
        with (tmp_path / "journal.jsonl").open("a") as handle:
            handle.write('{"event": "submit", "job_id": "job-0')  # killed mid-write

        pool2, journal2 = make_pool(tmp_path, [])
        stats = journal2.replay(pool2)
        assert stats["replayed"] == 1
        assert pool2.store.get(done.job_id).state is JobState.DONE
        pool2.shutdown()
        journal2.close()

    def test_unfinished_job_with_cached_result_is_not_recomputed(self, tmp_path):
        # The crash window between cache.put and the journal's finish line:
        # the journal says unfinished, but the persisted payload exists.
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        digest = job_digest("echo", {"value": 5})
        pool.cache.put(digest, {"value": 5})
        journal.record("submit", job_id="job-000042", type="echo",
                       params={"value": 5}, digest=digest, submitted_at=0.0)
        pool.shutdown()
        journal.close()

        calls2: list = []
        pool2, journal2 = make_pool(tmp_path, calls2)
        stats = journal2.replay(pool2)
        assert stats["completed"] == 1 and stats["requeued"] == 0
        job = pool2.store.get("job-000042")
        assert job.state is JobState.DONE and job.cache_hit
        assert job.result == {"value": 5}
        assert calls2 == [], "a persisted result must never recompute"
        # The journal now carries the finish line the crash swallowed.
        finishes = [json.loads(line) for line in
                    (tmp_path / "journal.jsonl").read_text().splitlines()
                    if '"done"' in line]
        assert any(e["job_id"] == "job-000042" for e in finishes)
        pool2.shutdown()
        journal2.close()

    def test_done_job_with_lost_cache_entry_is_recomputed(self, tmp_path):
        calls: list = []
        pool, journal = make_pool(tmp_path, calls)
        done = pool.run("echo", {"value": 3}, timeout=10)
        pool.shutdown()
        journal.close()
        for path in (tmp_path / "cache").glob("*.json"):
            path.unlink()  # the persisted payloads did not survive

        calls2: list = []
        pool2, journal2 = make_pool(tmp_path, calls2)
        stats = journal2.replay(pool2)
        assert stats["requeued"] == 1
        requeued = pool2.store.get(done.job_id)
        assert requeued.wait(10)
        assert requeued.state is JobState.DONE and requeued.result == {"value": 3}
        assert calls2 == [3]
        pool2.shutdown()
        journal2.close()


class TestServerJournalIntegration:
    def test_restarted_server_replays_and_serves_results(self, tmp_path):
        import urllib.request

        def get(base, path):
            with urllib.request.urlopen(base + path) as response:
                return json.loads(response.read())

        def post(base, path, payload):
            request = urllib.request.Request(
                base + path, data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        journal_dir = str(tmp_path / "journal")
        server = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        job = {"type": "prune_tensor", "params": {"rows": 32, "cols": 128}}
        first = post(base, "/v1/jobs?wait=120", job)
        assert first["state"] == "done"
        server.close()
        thread.join(timeout=10)

        restarted = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=restarted.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{restarted.port}"
        assert restarted.replay_stats["completed"] == 1

        # The pre-restart job is visible under its old id with its result.
        record = get(base, f"/v1/jobs/{first['job_id']}/result")
        assert record["state"] == "done"
        assert record["result"] == first["result"]
        # A resubmission is a cache hit, not a recompute.
        again = post(base, "/v1/jobs?wait=120", job)
        assert again["state"] == "done" and again["cache_hit"]
        assert get(base, "/v1/health")["journal"] is True
        restarted.close()
        thread.join(timeout=10)

    def test_journal_replay_counts_in_pool_states(self, tmp_path):
        # ReproServer.close() requires a running serve_forever loop, so the
        # servers get one even though the test talks to the pool directly.
        journal_dir = str(tmp_path / "journal")
        server = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        job = server.pool.run("prune_tensor", {"rows": 16, "cols": 64}, timeout=120)
        assert job.state is JobState.DONE
        server.close()
        thread.join(timeout=10)

        restarted = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=restarted.serve_forever, daemon=True)
        thread.start()
        counts = restarted.pool.store.counts()
        assert counts["done"] == 1
        restarted.close()
        thread.join(timeout=10)


@pytest.mark.parametrize("bad", [123, None])
def test_replay_skips_records_without_usable_job_id(tmp_path, bad):
    journal = JobJournal(tmp_path)
    journal.record("submit", job_id=bad, type="echo", params={}, digest="d")
    journal.close()
    pool = WorkerPool(make_registry([]), cache=ResultCache(), max_workers=1)
    stats = JobJournal(tmp_path).replay(pool)
    assert stats["replayed"] == 0
    pool.shutdown()
