"""Tests for the typed stdlib service client (retries, backoff, errors)."""

from __future__ import annotations

import http.client
import threading
import time

import pytest

from repro.obs.metrics import get_metrics
from repro.service import ResultCache, create_server
from repro.service.client import (
    JobFailedError,
    ServiceClient,
    ServiceRequestError,
    ServiceUnavailable,
)
from tests.test_service_hardening import build_registry


@pytest.fixture(scope="module")
def server():
    server = create_server(port=0, registry=build_registry(),
                           cache=ResultCache(max_entries=32), max_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


@pytest.fixture()
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.port}", retries=1, backoff=0.01)


class TestEndpoints:
    def test_health_and_scenarios(self, client):
        assert client.health()["status"] == "ok"
        assert {entry["name"] for entry in client.scenarios()} >= {"echo", "slow"}

    def test_submit_wait_and_result(self, client):
        record = client.submit("echo", {"value": 11}, wait=30)
        assert record["state"] == "done"
        assert client.result(record["job_id"])["result"] == {"value": 11}
        assert client.job(record["job_id"])["state"] == "done"

    def test_jobs_listing_pagination(self, client):
        client.submit("echo", {"value": 21}, wait=30)
        client.submit("echo", {"value": 22}, wait=30)
        listing = client.jobs(state="done", limit=1)
        assert listing["total"] >= 2 and len(listing["jobs"]) == 1

    def test_run_job_returns_payload(self, client):
        assert client.run_job("echo", {"value": 33}) == {"value": 33}

    def test_run_job_raises_on_remote_failure(self, server):
        client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
        record = client.submit("echo", {"bogus": 1}, wait=30)  # unknown param fails the job
        assert record["state"] == "failed"
        with pytest.raises(JobFailedError, match="unknown parameter"):
            client.run_job("echo", {"bogus": 1})


class TestErrorTaxonomy:
    def test_bad_request_is_typed_with_status_and_payload(self, client):
        with pytest.raises(ServiceRequestError) as excinfo:
            client.submit("no-such-scenario", {})
        assert excinfo.value.status == 400
        assert "unknown job type" in excinfo.value.payload["error"]

    def test_unknown_job_is_request_error_not_retried(self, client):
        with pytest.raises(ServiceRequestError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_dead_endpoint_retries_then_raises_unavailable(self):
        sleeps: list[float] = []
        client = ServiceClient(
            "http://127.0.0.1:1", retries=3, backoff=0.5, sleep=sleeps.append
        )
        with pytest.raises(ServiceUnavailable, match="after 4 attempt"):
            client.health()
        assert sleeps == [0.5, 1.0, 2.0], "exponential backoff between retries"

    def test_zero_retries_fails_fast(self):
        sleeps: list[float] = []
        client = ServiceClient("http://127.0.0.1:1", retries=0, sleep=sleeps.append)
        with pytest.raises(ServiceUnavailable, match="after 1 attempt"):
            client.health()
        assert sleeps == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("http://x", retries=-1)


@pytest.fixture()
def own_server():
    """A node of its own, for tests that close it or reach into its sockets."""
    server = create_server(port=0, registry=build_registry(),
                           cache=ResultCache(max_entries=32), max_workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


@pytest.fixture()
def connects(monkeypatch):
    """Count ``HTTPConnection.connect`` calls, per port."""
    counts: dict[int, int] = {}
    original = http.client.HTTPConnection.connect

    def counting(conn):
        counts[conn.port] = counts.get(conn.port, 0) + 1
        return original(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return counts


def _connections(outcome: str) -> float:
    family = get_metrics().get("repro_client_connections_total")
    return family.value(outcome=outcome)


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestKeepAlive:
    def test_requests_reuse_one_connection(self, server, connects):
        client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
        reused = _connections("reused")
        for value in range(10):
            client.submit("echo", {"value": value}, wait=10)
            client.health()
        client.metrics()  # the text scrape rides the same connection
        assert connects[server.port] == 1
        assert _connections("reused") - reused >= 20
        assert client.retry_stats()["total"] == 0

    def test_each_thread_gets_its_own_connection(self, server, connects):
        client = ServiceClient(f"http://127.0.0.1:{server.port}", retries=0)
        errors: list[BaseException] = []

        def work():
            try:
                for _ in range(5):
                    client.health()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert connects[server.port] == 3

    def test_server_closed_idle_connection_is_reopened(self, own_server, connects):
        own_server.keepalive_timeout_s = 0.1
        client = ServiceClient(f"http://127.0.0.1:{own_server.port}", retries=0)
        assert client.health()["status"] == "ok"
        # The server times the idle connection out and closes its end.
        assert _wait_until(lambda: not own_server._connections)
        stale = _connections("stale")
        assert client.health()["status"] == "ok"
        assert _connections("stale") - stale == 1
        assert connects[own_server.port] == 2
        assert client.retry_stats()["total"] == 0
        assert client.breaker.stats()["consecutive_failures"] == 0

    def test_server_closed_idle_connection_is_replaced_before_a_post(
        self, own_server, connects
    ):
        own_server.keepalive_timeout_s = 0.1
        client = ServiceClient(f"http://127.0.0.1:{own_server.port}", retries=0)
        client.health()
        assert _wait_until(lambda: not own_server._connections)
        stale = _connections("stale")
        record = client.submit("echo", {"value": 7}, wait=10)
        assert record["state"] == "done"
        assert _connections("stale") - stale == 1
        assert connects[own_server.port] == 2
        assert client.retry_stats()["total"] == 0
        assert client.jobs(digest=record["digest"])["total"] == 1

    @staticmethod
    def _drop_first_answer(monkeypatch, server, method: str) -> dict:
        """Make ``server`` close the connection instead of answering the
        first ``method`` request it serves (after acting on it), as a
        server killed at that moment would.  Returns the served count."""
        from repro.service.server import NodeHandler

        original = NodeHandler.send_body
        served = {"count": 0}

        def dropping(handler, status, body, content_type, extra_headers=None):
            if handler.server is server and handler.command == method:
                served["count"] += 1
                if served["count"] == 1:
                    handler.close_connection = True
                    return None
            return original(handler, status, body, content_type, extra_headers)

        monkeypatch.setattr(NodeHandler, "send_body", dropping)
        return served

    def test_get_dropped_on_reused_connection_is_resent_once(
        self, own_server, monkeypatch
    ):
        client = ServiceClient(f"http://127.0.0.1:{own_server.port}", retries=0)
        client.submit("echo", {"value": 1}, wait=10)  # opens the connection
        served = self._drop_first_answer(monkeypatch, own_server, "GET")
        stale = _connections("stale")
        assert client.health()["status"] == "ok"
        assert served["count"] == 2
        assert _connections("stale") - stale == 1
        assert client.retry_stats()["total"] == 0
        assert client.breaker.stats()["consecutive_failures"] == 0

    def test_post_dropped_on_reused_connection_is_reconciled_not_resent(
        self, own_server, monkeypatch
    ):
        """The server acted on the submit, then the connection closed with
        no answer: the POST must not be re-sent silently; the retry path
        finds the job by digest instead of posting it twice."""
        client = ServiceClient(
            f"http://127.0.0.1:{own_server.port}", retries=2, backoff=0.01
        )
        client.health()  # the submit below goes out on a reused connection
        served = self._drop_first_answer(monkeypatch, own_server, "POST")
        record = client.submit("echo", {"value": 42}, wait=10)
        assert served["count"] == 1, "the dropped submit was re-POSTed"
        assert client.reconciliations == 1
        assert client.retry_stats()["by_reason"] == {"network": 1}
        assert client.jobs(digest=record["digest"])["total"] == 1

    def test_truncated_response_on_reused_connection_is_reconciled(
        self, own_server, monkeypatch
    ):
        """A body cut short on a reused connection is not a stale connection:
        the POST was served, so the retry reconciles instead of re-posting."""
        from repro.service.server import NodeHandler

        original = NodeHandler.send_body
        posts = {"count": 0}

        def truncating(handler, status, body, content_type, extra_headers=None):
            if handler.server is not own_server or handler.command != "POST":
                return original(handler, status, body, content_type, extra_headers)
            posts["count"] += 1
            if posts["count"] > 1:
                return original(handler, status, body, content_type, extra_headers)
            handler._observed_status = status
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body[: len(body) // 2])
            handler.close_connection = True

        monkeypatch.setattr(NodeHandler, "send_body", truncating)
        client = ServiceClient(
            f"http://127.0.0.1:{own_server.port}", retries=2, backoff=0.01
        )
        client.health()  # the submit below goes out on a reused connection
        reused = _connections("reused")
        record = client.submit("echo", {"value": 41}, wait=10)
        assert _connections("reused") - reused >= 1
        assert posts["count"] == 1, "the truncated submit was re-POSTed"
        assert client.reconciliations == 1
        assert client.retry_stats()["total"] == 1
        assert record["state"] == "done"
        assert client.jobs(digest=record["digest"])["total"] == 1

    def test_closed_server_refuses_requests_on_open_connections(self, own_server):
        conn = http.client.HTTPConnection("127.0.0.1", own_server.port, timeout=10)
        try:
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            client = ServiceClient(f"http://127.0.0.1:{own_server.port}", retries=0)
            client.health()
            own_server.close()
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("GET", "/v1/healthz")
                conn.getresponse()
            with pytest.raises(ServiceUnavailable):
                client.health()
            # The handler threads of the open connections are gone too.
            assert _wait_until(lambda: not own_server._connections)
        finally:
            conn.close()

    def test_request_in_flight_at_close_is_still_answered(self, own_server):
        registry = own_server.registry
        client = ServiceClient(f"http://127.0.0.1:{own_server.port}", retries=0)
        results: list = []
        waiter = threading.Thread(
            target=lambda: results.append(client.submit("slow", {"value": 5}, wait=30))
        )
        waiter.start()
        assert registry.started.wait(10)
        closer = threading.Thread(target=own_server.close)
        closer.start()
        assert _wait_until(lambda: own_server.stopped)
        registry.gate.set()
        waiter.join(timeout=30)
        closer.join(timeout=30)
        assert results and results[0]["state"] == "done"
