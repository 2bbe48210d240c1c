"""Tests for the job lifecycle, worker pool, caching, and in-flight dedup."""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    JobState,
    ResultCache,
    ScenarioRegistry,
    WorkerPool,
    build_default_registry,
)


@pytest.fixture()
def registry():
    """A tiny registry of instrumented job types (fast, controllable)."""
    registry = ScenarioRegistry()
    calls = {"echo": 0, "boom": 0, "slow": 0, "none": 0}
    gate = threading.Event()
    started = threading.Event()

    def echo(value=0):
        calls["echo"] += 1
        return {"value": value}

    def none_result(value=0):
        calls["none"] += 1
        return None

    def boom(value=0):
        calls["boom"] += 1
        raise RuntimeError(f"deliberate failure ({value})")

    def slow(value=0):
        calls["slow"] += 1
        started.set()
        assert gate.wait(10), "test never released the gate"
        return {"value": value}

    registry.add("echo", "echo the params", echo, {"value": 0})
    registry.add("boom", "always fails", boom, {"value": 0})
    registry.add("slow", "blocks until released", slow, {"value": 0})
    registry.add("none", "returns None", none_result, {"value": 0})
    registry.calls = calls
    registry.gate = gate
    registry.started = started
    return registry


@pytest.fixture()
def pool(registry):
    with WorkerPool(registry, cache=ResultCache(max_entries=8), max_workers=2) as pool:
        yield pool
        registry.gate.set()  # never leave a slow job blocking shutdown


class TestJobLifecycle:
    def test_successful_job(self, pool):
        job = pool.run("echo", {"value": 42}, timeout=10)
        assert job.state is JobState.DONE
        assert job.result == {"value": 42}
        assert job.error is None and not job.cache_hit
        assert job.queue_seconds >= 0 and job.run_seconds >= 0
        assert job.finished_at >= job.started_at >= job.submitted_at - 1e-3
        payload = job.to_dict(include_result=True)
        assert payload["state"] == "done" and payload["result"] == {"value": 42}

    def test_failed_job_captures_traceback(self, pool, registry):
        job = pool.run("boom", timeout=10)
        assert job.state is JobState.FAILED
        assert job.result is None
        assert "RuntimeError" in job.error and "deliberate failure" in job.error
        # Failures are not cached: resubmitting runs the job again.
        again = pool.run("boom", timeout=10)
        assert again.job_id != job.job_id
        assert registry.calls["boom"] == 2

    def test_unknown_job_type_rejected_at_submit(self, pool):
        with pytest.raises(ValueError, match="unknown job type"):
            pool.submit("nope")

    def test_unknown_param_fails_the_job(self, pool):
        job = pool.run("echo", {"bogus": 1}, timeout=10)
        assert job.state is JobState.FAILED
        assert "unknown parameter" in job.error

    def test_store_counts(self, pool):
        pool.run("echo", {"value": 1}, timeout=10)
        pool.run("boom", timeout=10)
        counts = pool.store.counts()
        assert counts["done"] == 1 and counts["failed"] == 1
        assert counts["queued"] == 0 and counts["running"] == 0


class TestCachingAndDedup:
    def test_second_identical_job_is_a_cache_hit(self, pool, registry):
        first = pool.run("echo", {"value": 7}, timeout=10)
        second = pool.run("echo", {"value": 7}, timeout=10)
        assert second.job_id != first.job_id
        assert second.cache_hit and second.state is JobState.DONE
        assert second.result == first.result
        assert registry.calls["echo"] == 1
        assert pool.stats()["cache_hits"] == 1

    def test_omitted_defaults_share_a_cache_entry(self, pool, registry):
        # {} and the explicit defaults run the identical computation, so they
        # must canonicalize to the same digest.
        first = pool.run("echo", {}, timeout=10)
        second = pool.run("echo", {"value": 0}, timeout=10)
        assert second.cache_hit
        assert first.digest == second.digest
        assert registry.calls["echo"] == 1

    def test_different_params_are_different_cache_entries(self, pool, registry):
        pool.run("echo", {"value": 1}, timeout=10)
        job = pool.run("echo", {"value": 2}, timeout=10)
        assert not job.cache_hit
        assert registry.calls["echo"] == 2

    def test_inflight_dedup_shares_one_job(self, pool, registry):
        first = pool.submit("slow", {"value": 3})
        assert registry.started.wait(10)
        second = pool.submit("slow", {"value": 3})
        assert second is first
        assert first.dedup_count == 1
        registry.gate.set()
        assert first.wait(10)
        assert first.state is JobState.DONE and first.result == {"value": 3}
        assert registry.calls["slow"] == 1
        assert pool.stats()["dedup_hits"] == 1
        # After completion the digest is served from cache, not dedup.
        third = pool.run("slow", {"value": 3}, timeout=10)
        assert third.cache_hit and third.job_id != first.job_id

    def test_concurrent_distinct_jobs_both_run(self, pool, registry):
        slow = pool.submit("slow", {"value": 1})
        quick = pool.run("echo", {"value": 1}, timeout=10)
        assert quick.state is JobState.DONE
        registry.gate.set()
        assert slow.wait(10)
        assert slow.state is JobState.DONE

    def test_none_result_is_cached(self, pool, registry):
        # Regression: a None result used to read as a cache miss forever.
        first = pool.run("none", {"value": 4}, timeout=10)
        assert first.state is JobState.DONE and first.result is None
        second = pool.run("none", {"value": 4}, timeout=10)
        assert second.cache_hit and second.result is None
        assert registry.calls["none"] == 1


class TestCancellation:
    def test_cancel_queued_job(self, registry):
        with WorkerPool(registry, cache=ResultCache(), max_workers=1) as pool:
            running = pool.submit("slow", {"value": 1})
            assert registry.started.wait(10)
            queued = pool.submit("echo", {"value": 1})
            assert queued.state is JobState.QUEUED

            cancelled = pool.cancel(queued.job_id)
            assert cancelled is queued
            assert queued.state is JobState.CANCELLED
            assert queued.wait(1)  # cancellation completes the job event
            assert pool.stats()["cancelled"] == 1
            assert registry.calls["echo"] == 0, "cancelled job must never run"

            registry.gate.set()
            assert running.wait(10)
            # The digest is free again: resubmission runs the job.
            rerun = pool.run("echo", {"value": 1}, timeout=10)
            assert rerun.state is JobState.DONE
            assert registry.calls["echo"] == 1

    def test_cancel_running_job_is_refused(self, registry):
        with WorkerPool(registry, cache=ResultCache(), max_workers=1) as pool:
            running = pool.submit("slow", {"value": 2})
            assert registry.started.wait(10)
            refused = pool.cancel(running.job_id)
            assert refused is running
            assert running.state is JobState.RUNNING
            registry.gate.set()
            assert running.wait(10)
            assert running.state is JobState.DONE

    def test_cancel_unknown_job_returns_none(self, pool):
        assert pool.cancel("job-999999") is None

    def test_cancel_finished_job_keeps_its_state(self, pool):
        done = pool.run("echo", {"value": 8}, timeout=10)
        assert pool.cancel(done.job_id) is done
        assert done.state is JobState.DONE


class TestBackpressure:
    def test_submit_raises_when_queue_full(self, registry):
        from repro.service import QueueFullError

        with WorkerPool(
            registry, cache=ResultCache(), max_workers=1, max_queued=2
        ) as pool:
            pool.submit("slow", {"value": 1})
            assert registry.started.wait(10)
            pool.submit("echo", {"value": 1})
            with pytest.raises(QueueFullError, match="queue is full"):
                pool.submit("echo", {"value": 2})
            assert pool.stats()["rejected"] == 1

            # Dedup and cache hits are never rejected: they add no load.
            dedup = pool.submit("echo", {"value": 1})
            assert dedup.dedup_count == 1

            registry.gate.set()
            dedup.wait(10)
            # Draining the queue re-opens submission.
            job = pool.run("echo", {"value": 2}, timeout=10)
            assert job.state is JobState.DONE

    def test_invalid_limit_rejected(self, registry):
        with pytest.raises(ValueError, match="max_queued"):
            WorkerPool(registry, cache=ResultCache(), max_queued=0)

    @pytest.mark.parametrize(
        "flag, parameter", [("--workers", "max_workers"), ("--max-queued", "max_queued")]
    )
    def test_serve_cli_reports_a_bad_pool_size(self, flag, parameter, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {parameter} must be >= 1")


class TestJobStoreBounds:
    def test_finished_history_is_bounded(self, registry):
        from repro.service import JobStore

        store = JobStore(max_finished=3)
        with WorkerPool(registry, cache=ResultCache(), max_workers=2, store=store) as pool:
            for value in range(6):
                pool.run("echo", {"value": value}, timeout=10)
            assert len(store) <= 3

    def test_active_jobs_are_never_evicted(self, registry):
        from repro.service import JobStore

        store = JobStore(max_finished=1)
        with WorkerPool(registry, cache=ResultCache(), max_workers=2, store=store) as pool:
            slow = pool.submit("slow", {"value": 9})
            assert registry.started.wait(10)
            pool.run("echo", {"value": 1}, timeout=10)
            assert store.get(slow.job_id) is slow  # running job survives
            registry.gate.set()
            assert slow.wait(10)

    def test_invalid_bound_rejected(self):
        from repro.service import JobStore

        with pytest.raises(ValueError):
            JobStore(max_finished=0)

    @pytest.mark.parametrize("max_finished", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_eviction_matches_full_rescan(self, max_finished, seed):
        """Same survivors, same order as rescanning every job on each add:
        oldest finished evicted first, in-flight jobs (here also a few held
        unfinished at the front) never."""
        import random

        from repro.service import JobStore

        rng = random.Random(seed)
        store = JobStore(max_finished=max_finished)
        oracle: dict = {}
        finish_p = rng.choice([0.1, 0.4, 0.9])
        held: set[str] = set()
        for step in range(120):
            overflow = len(oracle) + 1 - max_finished
            if overflow > 0:
                for job_id in [
                    job.job_id for job in oracle.values() if job.state.finished
                ][:overflow]:
                    del oracle[job_id]
            if rng.random() < 0.3:
                job = store.restore(f"replayed-{step}", "echo", {}, f"d{step}")
            else:
                job = store.create("echo", {}, f"d{step}")
            oracle[job.job_id] = job
            if step < 3:
                held.add(job.job_id)  # in flight at the front until step 80
            for candidate in list(oracle.values()):
                if candidate.state is JobState.QUEUED and rng.random() < 0.5:
                    candidate.mark_running()
                if candidate.state.finished or rng.random() >= finish_p:
                    continue
                if candidate.job_id in held and step < 80:
                    continue
                rng.choice([
                    lambda: candidate.mark_done({}),
                    lambda: candidate.mark_failed("boom"),
                    lambda: candidate.mark_cancelled(),
                ])()
            assert [job.job_id for job in store.jobs()] == list(oracle)


class TestLazyEvents:
    def test_cache_hit_job_allocates_no_event(self, pool):
        pool.run("echo", {"value": 21}, timeout=10)
        hit = pool.submit("echo", {"value": 21})
        assert hit.cache_hit and hit.state is JobState.DONE
        assert hit.wait(0) is True
        assert hit._done_event is None and hit._cancel_event is None

    def test_wait_blocks_until_finished_from_another_thread(self, pool, registry):
        job = pool.submit("slow", {"value": 22})
        assert registry.started.wait(10)
        assert job.wait(0.01) is False
        woke = []
        waiter = threading.Thread(target=lambda: woke.append(job.wait(10)))
        waiter.start()
        registry.gate.set()
        waiter.join(timeout=10)
        assert woke == [True] and job.state is JobState.DONE

    def test_cancel_wakes_waiters_and_sets_cancel_event(self, registry):
        with WorkerPool(registry, cache=ResultCache(), max_workers=1) as pool:
            pool.submit("slow", {"value": 23})
            assert registry.started.wait(10)
            queued = pool.submit("echo", {"value": 23})
            assert not queued.cancel_requested
            woke = []
            waiter = threading.Thread(target=lambda: woke.append(queued.wait(10)))
            waiter.start()
            assert pool.cancel(queued.job_id) is queued
            waiter.join(timeout=10)
            assert woke == [True]
            assert queued.cancel_requested and queued.cancel_event.is_set()
            registry.gate.set()

    def test_deadline_sets_the_cancel_event(self, registry):
        with WorkerPool(registry, cache=ResultCache(), max_workers=1) as pool:
            job = pool.submit("slow", {"value": 24}, deadline_s=0.05)
            assert job.wait(10)
            assert job.state is JobState.FAILED and "deadline" in job.error
            assert job.cancel_requested
            registry.gate.set()


class TestDefaultRegistry:
    def test_covers_every_experiment_and_adhoc_job(self):
        registry = build_default_registry()
        from repro.eval import EXPERIMENTS

        names = registry.names()
        for name in EXPERIMENTS:
            assert name in names
        for name in ("ablations", "suite", "prune_tensor", "simulate"):
            assert name in names
        described = {entry["name"]: entry for entry in registry.describe()}
        assert described["figure12"]["params"] == {"models": None, "seed": 0}
        assert "rows" in described["prune_tensor"]["params"]

    def test_prune_tensor_job_runs_and_is_json(self):
        import json

        registry = build_default_registry()
        result = registry.run("prune_tensor", {"rows": 32, "cols": 128})
        json.dumps(result, allow_nan=False)
        assert 0 < result["effective_bits"] < 8
        assert result["compression_ratio"] > 1.0
        assert len(result["content_digest"]) == 64

    def test_simulate_job_runs_and_is_json(self):
        import json

        registry = build_default_registry()
        result = registry.run(
            "simulate",
            {
                "model": "ViT-Small",
                "accelerator": "Stripes",
                "max_channels": 32,
                "max_reduction": 128,
            },
        )
        json.dumps(result, allow_nan=False)
        assert result["total_cycles"] > 0
        assert result["total_energy_pj"] > 0
        assert result["suite"]["max_channels"] == 32

    def test_simulate_rejects_unknown_accelerator(self):
        registry = build_default_registry()
        with pytest.raises(ValueError, match="unknown accelerator"):
            registry.run("simulate", {"accelerator": "TPU"})
