"""End-to-end tests of the HTTP/JSON API against a server on an ephemeral port."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ResultCache, build_default_registry, create_server


@pytest.fixture(scope="module")
def server():
    server = create_server(port=0, registry=build_default_registry(),
                           cache=ResultCache(max_entries=32), max_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
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


#: A small compression job used throughout (fast: < a second cold).
PRUNE_JOB = {"type": "prune_tensor", "params": {"rows": 64, "cols": 256, "num_columns": 4}}


class TestInfrastructureEndpoints:
    def test_health(self, base):
        status, payload = get(base, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["scenarios"] >= 20
        assert payload["pool"]["workers"] == 2

    def test_scenarios_lists_experiments_and_adhoc_jobs(self, base):
        status, payload = get(base, "/v1/scenarios")
        assert status == 200
        names = {entry["name"] for entry in payload["scenarios"]}
        assert {"figure1", "figure12", "table6", "ablations", "suite",
                "prune_tensor", "simulate"} <= names

    def test_cache_stats_shape(self, base):
        status, payload = get(base, "/v1/cache/stats")
        assert status == 200
        for key in ("entries", "max_entries", "hits", "misses", "evictions", "hit_rate"):
            assert key in payload

    def test_unknown_paths_are_404(self, base):
        assert get(base, "/nope")[0] == 404
        assert get(base, "/v1/jobs/job-999999")[0] == 404
        assert post(base, "/nope", {})[0] == 404


class TestJobSubmission:
    def test_round_trip_and_cache_hit(self, base):
        # Cold submission: wait for completion server-side.
        status, first = post(base, "/v1/jobs?wait=120", PRUNE_JOB)
        assert status == 200
        assert first["state"] == "done" and not first["cache_hit"]
        assert first["result"]["compression_ratio"] > 1.0

        # Identical job again: identical result, served from cache.
        status, second = post(base, "/v1/jobs?wait=120", PRUNE_JOB)
        assert status == 200
        assert second["state"] == "done" and second["cache_hit"]
        assert second["job_id"] != first["job_id"]
        assert second["result"] == first["result"]

        status, stats = get(base, "/v1/cache/stats")
        assert stats["hits"] >= 1

    def test_poll_and_fetch_result(self, base):
        job = {"type": "prune_tensor", "params": {"rows": 32, "cols": 128}}
        status, submitted = post(base, "/v1/jobs", job)
        assert status in (200, 202)
        assert "result" not in submitted or submitted["state"] == "done"
        job_id = submitted["job_id"]

        deadline = 120
        import time

        start = time.perf_counter()
        while True:
            status, polled = get(base, f"/v1/jobs/{job_id}")
            assert status == 200
            if polled["state"] in ("done", "failed"):
                break
            assert time.perf_counter() - start < deadline
            time.sleep(0.02)
        assert polled["state"] == "done"
        assert "result" not in polled  # status endpoint stays lightweight

        status, result = get(base, f"/v1/jobs/{job_id}/result")
        assert status == 200
        assert result["result"]["shape"] == [32, 128]

    def test_result_of_unfinished_job_is_409(self, base):
        # figure1 takes ~a second cold, far longer than the immediate poll.
        status, submitted = post(base, "/v1/jobs", {"type": "figure1", "params": {"seed": 1}})
        assert status in (200, 202)
        status, payload = get(base, f"/v1/jobs/{submitted['job_id']}/result")
        if payload.get("state") in ("queued", "running"):
            assert status == 409
        else:
            assert status == 200
        # Let it finish so module teardown does not wait on the pool.
        assert self._wait_done(base, submitted["job_id"])

    def test_waited_get_returns_the_result_once_done(self, base):
        job = {"type": "prune_tensor", "params": {"rows": 64, "cols": 512, "seed": 3}}
        _, submitted = post(base, "/v1/jobs", job)
        job_id = submitted["job_id"]
        status, peek = get(base, f"/v1/jobs/{job_id}?wait=0")
        assert status == 200
        assert ("result" in peek) == (peek["state"] == "done")
        status, waited = get(base, f"/v1/jobs/{job_id}?wait=120")
        assert status == 200 and waited["state"] == "done"
        assert waited["result"] == get(base, f"/v1/jobs/{job_id}/result")[1]["result"]

    @staticmethod
    def _wait_done(base, job_id, deadline=120.0):
        import time

        start = time.perf_counter()
        while time.perf_counter() - start < deadline:
            _, payload = get(base, f"/v1/jobs/{job_id}")
            if payload["state"] in ("done", "failed"):
                return True
            time.sleep(0.05)
        return False

    def test_jobs_listing_contains_submissions(self, base):
        status, payload = get(base, "/v1/jobs")
        assert status == 200
        assert len(payload["jobs"]) >= 2
        assert all("result" not in job for job in payload["jobs"])

    def test_failed_job_reports_error(self, base):
        bad = {"type": "prune_tensor", "params": {"rows": -1, "cols": 16}}
        status, payload = post(base, "/v1/jobs?wait=120", bad)
        assert status == 200
        assert payload["state"] == "failed"
        assert "must be positive" in payload["error"]

    def test_bad_requests_are_400(self, base):
        assert post(base, "/v1/jobs", {"params": {}})[0] == 400
        assert post(base, "/v1/jobs", {"type": "no-such-job"})[0] == 400
        assert post(base, "/v1/jobs", {"type": "figure1", "params": []})[0] == 400
        assert post(base, "/v1/jobs", b"{not json")[0] == 400
        assert post(base, "/v1/jobs", b"")[0] == 400

    def test_invalid_wait_is_400_and_submits_nothing(self, base):
        before = len(get(base, "/v1/jobs")[1]["jobs"])
        assert post(base, "/v1/jobs?wait=1O", PRUNE_JOB)[0] == 400  # letter O typo
        assert post(base, "/v1/jobs?wait=nan", PRUNE_JOB)[0] == 400
        assert len(get(base, "/v1/jobs")[1]["jobs"]) == before
        assert get(base, "/v1/jobs/job-000001?wait=1O")[0] == 400
        assert get(base, "/v1/jobs/job-000001?wait=nan")[0] == 400

    def test_keepalive_connection_survives_posted_body_to_404(self, server):
        # The 404 handler must drain the body, or the unread bytes corrupt
        # the next request on this persistent connection.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            payload = json.dumps(PRUNE_JOB)
            connection.request("POST", "/wrong/path", body=payload,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


#: A 2-cell campaign: fast enough for a synchronous ?wait= round trip.
CAMPAIGN_SPEC = {
    "name": "http-campaign",
    "grids": [
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 16, "cols": 64, "backend": "ptq"},
            "sweep": {"bits": [6, 8]},
        }
    ],
}


class TestCampaignEndpoint:
    def test_post_campaign_runs_to_aggregate_report(self, base):
        status, payload = post(
            base, "/v1/campaign?wait=120", {"spec": CAMPAIGN_SPEC, "jobs": 2}
        )
        assert status == 200
        assert payload["state"] == "done"
        report = payload["result"]
        assert report["campaign"] == "http-campaign"
        assert report["total_cells"] == 2
        assert [cell["cell"] for cell in report["cells"]] == ["quant/0", "quant/1"]
        assert all(cell["digest"] for cell in report["cells"])

    def test_post_campaign_accepts_bare_spec_body(self, base):
        status, payload = post(base, "/v1/campaign?wait=120", CAMPAIGN_SPEC)
        assert status == 200
        # Same wrapped job => the result cache serves the repeat instantly.
        assert payload["result"]["spec_digest"]

    def test_client_submit_campaign(self, base):
        from repro.service.client import ServiceClient, ServiceRequestError

        client = ServiceClient(base, retries=0)
        record = client.submit_campaign(CAMPAIGN_SPEC, jobs=2, wait=120)
        assert record["state"] == "done"
        report = record["result"]
        assert report["campaign"] == "http-campaign"
        assert [cell["cell"] for cell in report["cells"]] == ["quant/0", "quant/1"]
        # The same body through the raw route is the same job.
        status, payload = post(
            base, "/v1/campaign?wait=120", {"spec": CAMPAIGN_SPEC, "jobs": 2}
        )
        assert status == 200 and payload["result"] == report
        with pytest.raises(ServiceRequestError) as excinfo:
            client.submit_campaign({"name": "x"})
        assert excinfo.value.status == 400

    def test_invalid_specs_and_fields_are_400(self, base):
        assert post(base, "/v1/campaign", {"spec": {"name": "x"}})[0] == 400
        assert post(base, "/v1/campaign", {"spec": CAMPAIGN_SPEC, "jobs": 0})[0] == 400
        assert post(base, "/v1/campaign", {"spec": CAMPAIGN_SPEC, "typo": 1})[0] == 400
        assert post(base, "/v1/campaign", b"{not json")[0] == 400
        # Unknown scenarios and parameter typos fail the request, not the job.
        bad_scenario = json.loads(json.dumps(CAMPAIGN_SPEC))
        bad_scenario["grids"][0]["scenario"] = "no_such_scenario"
        status, payload = post(base, "/v1/campaign", bad_scenario)
        assert status == 400 and "no_such_scenario" in payload["error"]
        bad_param = json.loads(json.dumps(CAMPAIGN_SPEC))
        bad_param["grids"][0]["sweep"]["typo_axis"] = [1]
        assert post(base, "/v1/campaign", bad_param)[0] == 400
