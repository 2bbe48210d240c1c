"""Regression tests for the hardened HTTP layer: malformed requests, the
catch-all error envelope, cancellation, backpressure, and /jobs pagination.

The header and keep-alive cases run against a node and, through
``TestGatewayEnvelope``, against a gateway: both serve through the shared
layer in :mod:`repro.service.http`."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.gateway import create_gateway
from repro.service import ResultCache, ScenarioRegistry, create_server


def build_registry():
    """Small controllable registry: echo, a None result, a NaN result, a gate."""
    registry = ScenarioRegistry()
    gate = threading.Event()
    started = threading.Event()
    calls = {"none": 0}

    def echo(value=0):
        return {"value": value}

    def none_result(value=0):
        calls["none"] += 1
        return None

    def nan_result(value=0):
        return {"bad": float("nan")}

    def slow(value=0):
        started.set()
        assert gate.wait(30), "test never released the gate"
        return {"value": value}

    registry.add("echo", "echo the params", echo, {"value": 0})
    registry.add("none", "returns None", none_result, {"value": 0})
    registry.add("nan", "returns a NaN payload", nan_result, {"value": 0})
    registry.add("slow", "blocks until released", slow, {"value": 0})
    registry.gate = gate
    registry.started = started
    registry.calls = calls
    return registry


@pytest.fixture()
def server():
    registry = build_registry()
    server = create_server(port=0, registry=registry,
                           cache=ResultCache(max_entries=32), max_workers=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.test_registry = registry
    yield server
    registry.gate.set()
    server.close()
    thread.join(timeout=10)


@pytest.fixture()
def base(server):
    return f"http://127.0.0.1:{server.port}"


def get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def post(base: str, path: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8") if not isinstance(payload, bytes) else payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestMalformedHeaders:
    def _raw_post(self, server, content_length: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", content_length)
            connection.endheaders()
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_non_integer_content_length_is_400_json(self, server):
        status, payload = self._raw_post(server, "not-a-number")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_is_400_json(self, server):
        status, payload = self._raw_post(server, "-5")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_content_length_is_413_json(self, server):
        status, payload = self._raw_post(server, str(1 << 40))
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_service_still_answers_after_malformed_header(self, server, base):
        self._raw_post(server, "garbage")
        assert get(base, "/v1/health")[0] == 200


class TestUnknownFields:
    def test_unknown_submission_fields_are_400(self, base):
        status, payload = post(base, "/v1/jobs", {"type": "echo", "paramz": {}})
        assert status == 400
        assert "paramz" in payload["error"]


class TestErrorEnvelope:
    def test_unserializable_result_is_500_json_not_html(self, base):
        # The job itself succeeds; serializing its NaN payload into the
        # response cannot — previously an unhandled ValueError tore the
        # connection down with no response at all.
        status, payload = post(base, "/v1/jobs?wait=30", {"type": "nan"})
        assert status == 500
        assert "internal server error" in payload["error"]

    def test_keepalive_survives_bad_json_then_reuse(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request("POST", "/v1/jobs", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            json.loads(response.read())
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_service_still_healthy_after_500(self, base):
        post(base, "/v1/jobs?wait=30", {"type": "nan"})
        assert get(base, "/v1/health")[0] == 200


class TestGatewayEnvelope(TestMalformedHeaders):
    """The malformed-header and keep-alive cases against a gateway."""

    @pytest.fixture()
    def server(self):
        gateway = create_gateway(port=0)
        thread = threading.Thread(target=gateway.serve_forever, daemon=True)
        thread.start()
        yield gateway
        gateway.close()
        thread.join(timeout=10)

    test_keepalive_survives_bad_json_then_reuse = (
        TestErrorEnvelope.test_keepalive_survives_bad_json_then_reuse
    )


class TestNoneResults:
    def test_none_result_cache_hits(self, server, base):
        # A None result must be a first-class cached value, not a
        # permanently-missing cache entry recomputed on every submission.
        status, first = post(base, "/v1/jobs?wait=30", {"type": "none", "params": {"value": 5}})
        assert status == 200 and first["state"] == "done"
        assert not first["cache_hit"]
        status, second = post(base, "/v1/jobs?wait=30", {"type": "none", "params": {"value": 5}})
        assert status == 200 and second["state"] == "done"
        assert second["cache_hit"]
        assert server.test_registry.calls["none"] == 1
        status, result = get(base, f"/v1/jobs/{second['job_id']}/result")
        assert status == 200 and result["result"] is None


class TestCancellation:
    def test_cancel_queued_job(self, server, base):
        registry = server.test_registry
        _, running = post(base, "/v1/jobs", {"type": "slow", "params": {"value": 1}})
        assert registry.started.wait(10)
        _, queued = post(base, "/v1/jobs", {"type": "echo", "params": {"value": 2}})
        assert queued["state"] == "queued"

        status, cancelled = post(base, f"/v1/jobs/{queued['job_id']}/cancel", {})
        assert status == 200
        assert cancelled["state"] == "cancelled"
        status, record = get(base, f"/v1/jobs/{queued['job_id']}")
        assert record["state"] == "cancelled"

        # The running job cannot be cancelled.
        status, refused = post(base, f"/v1/jobs/{running['job_id']}/cancel", {})
        assert status == 409
        registry.gate.set()

    def test_cancel_unknown_job_is_404(self, base):
        assert post(base, "/v1/jobs/job-999999/cancel", {})[0] == 404

    def test_cancel_finished_job_is_409(self, base):
        _, done = post(base, "/v1/jobs?wait=30", {"type": "echo", "params": {"value": 3}})
        assert done["state"] == "done"
        status, payload = post(base, f"/v1/jobs/{done['job_id']}/cancel", {})
        assert status == 409
        assert "done" in payload["error"]


class TestBackpressure:
    @pytest.fixture()
    def saturated(self):
        registry = build_registry()
        server = create_server(port=0, registry=registry,
                               cache=ResultCache(max_entries=32),
                               max_workers=1, max_queued=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.test_registry = registry
        yield server, f"http://127.0.0.1:{server.port}"
        registry.gate.set()
        server.close()
        thread.join(timeout=10)

    def test_429_when_queue_full_then_recovers(self, saturated):
        server, base = saturated
        registry = server.test_registry
        post(base, "/v1/jobs", {"type": "slow", "params": {"value": 1}})
        assert registry.started.wait(10)
        post(base, "/v1/jobs", {"type": "echo", "params": {"value": 2}})
        status, payload = post(base, "/v1/jobs", {"type": "echo", "params": {"value": 3}})
        assert status == 429
        assert payload["max_queued"] == 2
        assert "retry" in payload["error"]

        # Duplicates of queued work are dedup/cache hits, never rejected.
        status, dedup = post(base, "/v1/jobs", {"type": "echo", "params": {"value": 2}})
        assert status in (200, 202)

        registry.gate.set()
        # Once the queue drains, the rejected job is accepted (the drain is
        # asynchronous, so retry through the tail of the 429 window).
        import time

        deadline = time.perf_counter() + 10
        while True:
            status, accepted = post(base, "/v1/jobs?wait=30",
                                    {"type": "echo", "params": {"value": 3}})
            if status != 429:
                break
            assert time.perf_counter() < deadline, "queue never drained"
            time.sleep(0.02)
        assert status == 200 and accepted["state"] == "done"


class TestJobsPagination:
    def test_state_filter_offset_and_limit(self, server, base):
        for value in range(4):
            post(base, "/v1/jobs?wait=30", {"type": "echo", "params": {"value": value}})
        status, everything = get(base, "/v1/jobs?state=done")
        assert status == 200
        assert everything["total"] == 4
        assert [job["state"] for job in everything["jobs"]] == ["done"] * 4

        status, window = get(base, "/v1/jobs?state=done&offset=1&limit=2")
        assert window["total"] == 4
        assert len(window["jobs"]) == 2
        assert window["offset"] == 1 and window["limit"] == 2
        assert window["jobs"] == everything["jobs"][1:3]

        status, empty = get(base, "/v1/jobs?state=failed")
        assert status == 200 and empty["total"] == 0 and empty["jobs"] == []

    def test_invalid_pagination_params_are_400(self, base):
        assert get(base, "/v1/jobs?state=nope")[0] == 400
        assert get(base, "/v1/jobs?offset=-1")[0] == 400
        assert get(base, "/v1/jobs?limit=abc")[0] == 400
