"""Hardened failure semantics: deadlines, circuit breaking, Retry-After
backpressure, jittered polling, crashed workers, and graceful shutdown."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import get_metrics
from repro.service import (
    CircuitBreaker,
    CircuitBreakerOpen,
    JobJournal,
    JobState,
    ResultCache,
    ScenarioRegistry,
    ServiceClient,
    WorkerPool,
    create_server,
    job_cancelled,
)
from repro.service.client import (
    ServiceRequestError,
    ServiceUnavailable,
    _retry_after_hint,
)
from repro.service.registry import build_default_registry


def gated_registry():
    """echo plus a slow job blocked on a gate the test controls."""
    registry = ScenarioRegistry()
    gate = threading.Event()
    started = threading.Event()
    cancel_seen = []

    def echo(value=0):
        return {"value": value}

    def slow(value=0):
        started.set()
        assert gate.wait(30), "test never released the gate"
        return {"value": value}

    def cooperative(value=0):
        started.set()
        for _ in range(500):
            if job_cancelled():
                cancel_seen.append(True)
                return {"bailed": True}
            time.sleep(0.01)
        return {"bailed": False}

    registry.add("echo", "echo", echo, {"value": 0})
    registry.add("slow", "blocks on a gate", slow, {"value": 0})
    registry.add("cooperative", "polls job_cancelled()", cooperative, {"value": 0})
    registry.gate = gate
    registry.started = started
    registry.cancel_seen = cancel_seen
    return registry


@pytest.fixture()
def pool():
    registry = gated_registry()
    pool = WorkerPool(registry, cache=ResultCache(max_entries=32), max_workers=1)
    pool.test_registry = registry
    yield pool
    registry.gate.set()
    pool.shutdown()


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #


class TestDeadlines:
    def test_queued_job_expires_into_failed(self, pool):
        registry = pool.test_registry
        counter = get_metrics().counter("repro_jobs_total", "", ("scenario", "event"))
        before = counter.value(scenario="echo", event="deadline")

        pool.submit("slow")  # occupies the single worker
        assert registry.started.wait(10)
        queued = pool.submit("echo", {"value": 1}, deadline_s=0.15)
        assert queued.wait(10)
        assert queued.state is JobState.FAILED
        assert "deadline" in queued.error and "queued" in queued.error
        assert pool.stats()["expired"] == 1
        assert counter.value(scenario="echo", event="deadline") == before + 1
        registry.gate.set()

    def test_running_job_expires_without_double_finish(self, tmp_path):
        registry = gated_registry()
        journal = JobJournal(tmp_path)
        pool = WorkerPool(registry, cache=ResultCache(), max_workers=1, journal=journal)
        try:
            job = pool.submit("slow", deadline_s=0.15)
            assert registry.started.wait(10)
            assert job.wait(10)
            assert job.state is JobState.FAILED
            assert "deadline" in job.error and "running" in job.error
            # Let the worker body return *after* the expiry and settle.
            registry.gate.set()
            time.sleep(0.3)
            assert job.state is JobState.FAILED, "the late worker must not win"
        finally:
            registry.gate.set()
            pool.shutdown()
            journal.close()
        finishes = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
            if json.loads(line)["event"] in ("done", "failed", "cancelled")
        ]
        assert len(finishes) == 1 and finishes[0]["event"] == "failed"

    def test_cooperative_body_observes_cancellation(self, pool):
        registry = pool.test_registry
        start = time.perf_counter()
        job = pool.submit("cooperative", deadline_s=0.2)
        assert job.wait(10)
        assert job.state is JobState.FAILED and "deadline" in job.error
        # The body saw the flag and bailed out well before its 5s worst case.
        deadline = time.perf_counter() + 5
        while not registry.cancel_seen and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert registry.cancel_seen == [True]
        assert time.perf_counter() - start < 4

    def test_finished_job_never_expires(self, pool):
        job = pool.run("echo", {"value": 2}, timeout=10, deadline_s=30.0)
        assert job.state is JobState.DONE
        deadline = time.perf_counter() + 5
        while pool._deadline_timers and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert not pool._deadline_timers, "finished jobs must drop their timers"

    def test_deadline_not_part_of_content_digest(self, pool):
        first = pool.run("echo", {"value": 3}, timeout=10, deadline_s=30.0)
        second = pool.run("echo", {"value": 3}, timeout=10)
        assert second.cache_hit and second.digest == first.digest

    @pytest.mark.parametrize("bad", [0, -1, True, "soon"])
    def test_invalid_deadline_rejected(self, pool, bad):
        with pytest.raises(ValueError, match="deadline_s"):
            pool.submit("echo", deadline_s=bad)

    def test_replayed_deadline_rearms_with_full_budget(self, tmp_path):
        from repro.service.workers import job_digest

        journal = JobJournal(tmp_path)
        journal.record(
            "submit", job_id="job-000009", type="slow", params={"value": 0},
            digest=job_digest("slow", {"value": 0}), submitted_at=0.0,
            deadline_s=0.15,
        )
        journal.close()

        registry = gated_registry()  # the gate stays shut: the job can't finish
        pool = WorkerPool(registry, cache=ResultCache(), max_workers=1)
        try:
            stats = JobJournal(tmp_path).replay(pool)
            assert stats["requeued"] == 1
            job = pool.store.get("job-000009")
            assert job.deadline_s == 0.15
            assert job.wait(10)
            assert job.state is JobState.FAILED and "deadline" in job.error
        finally:
            registry.gate.set()
            pool.shutdown()


class TestDeadlineOverHttp:
    def test_deadline_s_accepted_and_enforced(self):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            client = ServiceClient(base, retries=0)
            record = client.submit("slow", deadline_s=0.2)
            assert record["deadline_s"] == 0.2
            deadline = time.perf_counter() + 10
            while record["state"] not in ("done", "failed", "cancelled"):
                assert time.perf_counter() < deadline
                time.sleep(0.02)
                record = client.job(record["job_id"])
            assert record["state"] == "failed" and "deadline" in record["error"]

            with pytest.raises(ServiceRequestError) as excinfo:
                client.submit("echo", deadline_s=-1)
            assert "deadline_s" in str(excinfo.value)
        finally:
            registry.gate.set()
            server.close()
            thread.join(timeout=10)


# --------------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_opens_after_threshold_then_half_open_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                                 clock=lambda: now[0])
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.retry_in() == pytest.approx(10.0)

        now[0] = 11.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow(), "only one probe owns the half-open slot"
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=lambda: now[0])
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.stats()["transitions"]["open"] == 2

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_client_fails_fast_when_open(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        client = ServiceClient("http://127.0.0.1:1", retries=0, backoff=0.0,
                               sleep=lambda s: None, breaker=breaker)
        for _ in range(2):
            with pytest.raises(ServiceUnavailable):
                client.health()
        assert breaker.state == "open"
        with pytest.raises(CircuitBreakerOpen) as excinfo:
            client.health()
        assert excinfo.value.attempts == 0, "open breaker must not touch the network"
        assert isinstance(excinfo.value, ServiceUnavailable)

    def test_429_saturation_never_opens_the_breaker(self):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1, max_queued=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            breaker = CircuitBreaker(failure_threshold=1)
            client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0,
                                   sleep=lambda s: None, breaker=breaker)
            client.submit("slow")  # saturate the single queue slot
            assert registry.started.wait(10)
            for value in range(3):
                with pytest.raises(ServiceUnavailable) as excinfo:
                    client.submit("echo", {"value": value})
                assert excinfo.value.saturated
            assert breaker.state == "closed", "busy is not broken"
        finally:
            registry.gate.set()
            server.close()
            thread.join(timeout=10)


# --------------------------------------------------------------------------- #
# Retry-After backpressure
# --------------------------------------------------------------------------- #


class TestRetryAfter:
    @pytest.fixture()
    def saturated(self):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1, max_queued=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        ServiceClient(base, retries=0).submit("slow")
        assert registry.started.wait(10)
        yield base
        registry.gate.set()
        server.close()
        thread.join(timeout=10)

    def test_429_carries_header_and_body_hint(self, saturated):
        request = urllib.request.Request(
            saturated + "/v1/jobs",
            data=json.dumps({"type": "echo", "params": {"value": 9}}).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        error = excinfo.value
        assert error.code == 429
        assert int(error.headers["Retry-After"]) >= 1
        body = json.loads(error.read())
        assert isinstance(body["retry_after"], float) and body["retry_after"] > 0

    def test_client_sleeps_the_server_hint(self, saturated):
        sleeps: list[float] = []
        client = ServiceClient(saturated, retries=2, backoff=5.0,
                               sleep=sleeps.append)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.submit("echo", {"value": 10})
        assert excinfo.value.saturated
        # Both retry sleeps took the server's 0.5s hint, not 5s/10s backoff.
        assert sleeps == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_hint_parsing_prefers_body_and_clamps(self):
        def http_error(headers: dict):
            import email.message

            message = email.message.Message()
            for key, value in headers.items():
                message[key] = value
            return urllib.error.HTTPError("http://x", 429, "busy", message, None)

        assert _retry_after_hint(http_error({}), {"retry_after": 1.25}) == 1.25
        assert _retry_after_hint(http_error({"Retry-After": "3"}), {}) == 3.0
        assert _retry_after_hint(
            http_error({"Retry-After": "2"}), {"retry_after": 0.25}
        ) == 0.25, "the body's float beats the header's integer"
        assert _retry_after_hint(http_error({}), {"retry_after": 9000}) == 30.0
        assert _retry_after_hint(http_error({"Retry-After": "soon"}), None) is None
        assert _retry_after_hint(http_error({}), {"retry_after": True}) is None

    def test_pool_hint_tracks_observed_durations(self, pool):
        assert pool.retry_after_hint() == 0.5  # nothing observed yet
        pool.run("echo", {"value": 11}, timeout=10)
        hint = pool.retry_after_hint()
        assert 0.1 <= hint <= 30.0


class TestJitteredPolling:
    def test_run_job_backs_off_with_cap(self, monkeypatch):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        monkeypatch.setattr("repro.service.client.random.uniform",
                            lambda a, b: 1.0)
        sleeps: list[float] = []

        def record_sleep(seconds: float) -> None:
            sleeps.append(seconds)
            if len(sleeps) == 8:
                registry.gate.set()  # let the job finish after 8 polls

        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}",
                                   retries=0, sleep=record_sleep)
            # The back-off is for an endpoint that answers a wait at once
            # without a finished job (a gateway's synthetic "queued" for a
            # lost node's job): drop the wait to play that endpoint.
            real_job = client.job
            client.job = lambda job_id, wait=None: real_job(job_id)
            result = client.run_job("slow", {"value": 12}, poll_interval=0.05,
                                    poll_cap=0.4, timeout=30)
            assert result == {"value": 12}
        finally:
            registry.gate.set()
            server.close()
            thread.join(timeout=10)

        assert len(sleeps) >= 8
        assert sleeps[0] == pytest.approx(0.05)
        for previous, current in zip(sleeps, sleeps[1:], strict=False):
            assert current == pytest.approx(min(previous * 1.7, 0.4))
        assert max(sleeps) <= 0.4 + 1e-9

    def test_run_job_waits_on_the_server_without_sleeping(self):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        sleeps: list[float] = []
        requests: list[str] = []
        opener = threading.Timer(0.3, registry.gate.set)
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}",
                                   retries=0, sleep=sleeps.append)
            real_request = client.request

            def request(method, path, *args, **kwargs):
                requests.append(f"{method} {path.split('?')[0]}")
                return real_request(method, path, *args, **kwargs)

            client.request = request
            opener.start()
            assert client.run_job("slow", {"value": 7}, timeout=30) == {"value": 7}
        finally:
            opener.cancel()
            registry.gate.set()
            server.close()
            thread.join(timeout=10)
        # A submit and one waited GET that came back with the result.
        assert requests == ["POST /v1/jobs", "GET /v1/jobs/job-000001"]
        assert sleeps == []


# --------------------------------------------------------------------------- #
# Job bodies that call sys.exit() on their worker thread
# --------------------------------------------------------------------------- #


def exiting_registry():
    """echo plus a job whose body raises SystemExit on its worker thread."""
    registry = ScenarioRegistry()
    registry.add("echo", "echo the params", lambda value=0: {"value": value},
                 {"value": 0})
    registry.add("exits", "calls sys.exit", lambda value=0: sys.exit(value),
                 {"value": 3})
    return registry


class TestDeadWorker:
    def test_dead_worker_fails_the_job_and_pool_recovers(self):
        with WorkerPool(exiting_registry(), max_workers=1) as pool:
            job = pool.submit("exits")
            assert job.wait(30)
            assert job.state is JobState.FAILED
            assert "SystemExit" in job.error
            assert pool.stats()["inflight"] == 0

            # The pool's one worker still executes jobs.
            again = pool.run("echo", {"value": 1}, timeout=30)
            assert again.state is JobState.DONE
            assert again.result == {"value": 1}

    def test_resubmitting_a_dead_job_runs_it_again(self):
        with WorkerPool(exiting_registry(), max_workers=1) as pool:
            first = pool.run("exits", timeout=30)
            second = pool.run("exits", timeout=30)
            assert second is not first
            assert second.state is JobState.FAILED
            assert pool.stats()["executed"] == 2


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #


class TestGracefulShutdown:
    def test_drain_finishes_running_and_requeues_queued(self, tmp_path):
        registry = gated_registry()
        journal = JobJournal(tmp_path)
        pool = WorkerPool(registry,
                          cache=ResultCache(directory=tmp_path / "cache"),
                          max_workers=1, journal=journal)
        running = pool.submit("slow", {"value": 1})
        assert registry.started.wait(10)
        queued = [pool.submit("echo", {"value": v}) for v in (2, 3)]
        queued_futures = [pool._futures[job.job_id] for job in queued]

        def release_after_cancel():
            deadline = time.monotonic() + 10
            while (not all(f.cancelled() for f in queued_futures)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            registry.gate.set()

        releaser = threading.Thread(target=release_after_cancel)
        releaser.start()
        pool.shutdown(wait=True, cancel_pending=True)
        releaser.join()
        journal.close()

        assert running.state is JobState.DONE, "running work drains, not dies"
        assert all(job.state is JobState.QUEUED for job in queued)

        # The journal re-enqueues exactly the still-queued jobs on restart.
        registry2 = gated_registry()
        registry2.gate.set()
        pool2 = WorkerPool(registry2,
                           cache=ResultCache(directory=tmp_path / "cache"),
                           max_workers=2)
        stats = JobJournal(tmp_path).replay(pool2)
        assert stats["requeued"] == 2
        assert stats["completed"] == 1, "the drained job replays from cache"
        for job in queued:
            restored = pool2.store.get(job.job_id)
            assert restored.wait(10) and restored.state is JobState.DONE
        pool2.shutdown()

    def test_server_graceful_close_reports_drain(self, tmp_path):
        registry = gated_registry()
        server = create_server(port=0, registry=registry, max_workers=1,
                               journal_dir=str(tmp_path))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.pool.submit("slow", {"value": 1})
        assert registry.started.wait(10)
        queued = server.pool.submit("echo", {"value": 2})
        queued_future = server.pool._futures[queued.job_id]

        def release_after_cancel():
            # server.shutdown() takes up to the serve loop's 0.5s poll
            # interval; only once the queued future is cancelled is it safe
            # to let the running job finish.
            deadline = time.monotonic() + 10
            while not queued_future.cancelled() and time.monotonic() < deadline:
                time.sleep(0.01)
            registry.gate.set()

        releaser = threading.Thread(target=release_after_cancel)
        releaser.start()
        stats = server.graceful_close()
        releaser.join()
        thread.join(timeout=10)

        assert stats["journaled"] is True
        assert stats["inflight"] == 2
        assert stats["requeued"] == 1 and stats["drained"] == 1

    def test_close_before_serve_forever_returns(self, tmp_path):
        # BaseServer.shutdown() waits on an event only serve_forever() sets;
        # a server torn down before ever serving (the CLI's failed gateway
        # registration path) must still close promptly instead of hanging.
        server = create_server(port=0, max_workers=1, journal_dir=str(tmp_path))
        done = threading.Event()

        def close():
            server.close(wait=False)
            done.set()

        threading.Thread(target=close, daemon=True).start()
        assert done.wait(10), "close() hung on a server that never served"

    def test_serve_cli_exits_zero_on_sigterm(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "1", "--journal", str(tmp_path / "journal")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            deadline = time.monotonic() + 60
            for line in process.stdout:
                if "listening on" in line:
                    break
                assert time.monotonic() < deadline, "serve never came up"
            process.send_signal(signal.SIGTERM)
            output = process.stdout.read()
            assert process.wait(timeout=60) == 0
            assert "shutdown complete" in output
            # The banner lists the route table's paths, not a hand-kept copy.
            banner = next(line for line in output.splitlines() if "endpoints:" in line)
            assert "/v1/campaign" in banner.split()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
