"""Tests for federated campaign dispatch across remote serve nodes.

The load-bearing property: a campaign dispatched over N nodes — including
after node loss and across resume boundaries — produces ``report.json`` /
``report.csv`` byte-identical to the same campaign run locally.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.campaign import CampaignRunError, CampaignRunner, parse_spec
from repro.campaign.dispatch import MAX_CELL_ATTEMPTS, CampaignDispatcher, DispatchError
from repro.obs.trace import get_recorder
from repro.service import create_server
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.registry import JobType, build_default_registry

#: Six fast deterministic cells across a two-grid DAG.
SPEC = {
    "name": "dispatch-test",
    "grids": [
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 16, "cols": 64, "backend": "ptq"},
            "sweep": {"bits": [4, 6, 8]},
        },
        {
            "name": "prune",
            "scenario": "prune_tensor",
            "params": {"rows": 32, "cols": 128},
            "sweep": {"num_columns": [2, 4, 6]},
            "depends_on": ["quant"],
        },
    ],
}


@pytest.fixture(scope="module")
def fleet():
    servers = []
    threads = []
    for _ in range(2):
        server = create_server(port=0, max_workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        threads.append(thread)
    yield [f"http://127.0.0.1:{server.port}" for server in servers]
    for server, thread in zip(servers, threads, strict=False):
        server.close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def local_reports(tmp_path_factory):
    """The reference run: the same campaign executed by the local runner."""
    run_dir = tmp_path_factory.mktemp("local-reference")
    runner = CampaignRunner(parse_spec(SPEC), run_dir, jobs=2)
    runner.run()
    return (
        (run_dir / "report.json").read_bytes(),
        (run_dir / "report.csv").read_bytes(),
    )


def spans_named(trace_id: str, name: str) -> list[dict]:
    return [s for s in get_recorder().buffer.spans_for_trace(trace_id) if s["name"] == name]


def fast_client(url, **kwargs):
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff", 0.01)
    kwargs.setdefault("timeout", 30.0)
    return ServiceClient(url, **kwargs)


class TestTwoNodeDispatch:
    def test_report_is_byte_identical_to_local_run(self, fleet, local_reports, tmp_path):
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        stats = dispatcher.run()
        assert stats["report_written"] and stats["failed"] == 0
        assert stats["executed"] + stats["skipped_checkpointed"] == 6
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]
        assert (tmp_path / "run/report.csv").read_bytes() == local_reports[1]

    def test_dispatch_resumes_from_checkpoints(self, fleet, local_reports, tmp_path):
        run_dir = tmp_path / "resumable"
        spec = parse_spec(SPEC)
        # Partially complete the campaign locally (2 cells), then dispatch
        # the remainder into the same run directory.
        partial = CampaignRunner(spec, run_dir, jobs=1, max_jobs=2)
        stats = partial.run()
        assert stats["interrupted"] and stats["executed"] == 2

        dispatcher = CampaignDispatcher(
            spec, fleet, run_dir, poll_interval=0.02, client_factory=fast_client
        )
        stats = dispatcher.run()
        assert stats["skipped_checkpointed"] == 2
        assert stats["executed"] == 4
        assert stats["report_written"]
        assert (run_dir / "report.json").read_bytes() == local_reports[0]
        assert (run_dir / "report.csv").read_bytes() == local_reports[1]

    def test_dispatch_tolerates_dead_node_at_start(self, fleet, local_reports, tmp_path):
        endpoints = ["http://127.0.0.1:1", *fleet]  # port 1: connection refused
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), endpoints, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        stats = dispatcher.run()
        assert stats["report_written"]
        dead = next(n for n in stats["nodes"] if n["url"] == "http://127.0.0.1:1")
        assert not dead["alive"] and dead["completed"] == 0
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]

    def test_cells_with_a_repeated_digest_all_execute(self, fleet, tmp_path):
        # seed [0, 0, 1]: two cells of one grid share a digest.  Each is its
        # own cell — executed, checkpointed and traced — exactly as locally.
        spec = parse_spec({
            "name": "repeated-digest",
            "grids": [{
                "name": "prune",
                "scenario": "prune_tensor",
                "params": {"rows": 16, "cols": 64},
                "sweep": {"seed": [0, 0, 1]},
            }],
        })
        local = CampaignRunner(spec, tmp_path / "local", jobs=2).run()
        dispatcher = CampaignDispatcher(
            spec, fleet, tmp_path / "run", poll_interval=0.02, client_factory=fast_client
        )
        stats = dispatcher.run()
        assert local["executed"] == stats["executed"] == 3
        cells = spans_named(stats["trace_id"], "dispatch.cell")
        assert sorted(span["attrs"]["cell"] for span in cells) == [
            "prune/0", "prune/1", "prune/2",
        ]
        assert all(span["status"] == "ok" for span in cells)
        assert (tmp_path / "run/report.json").read_bytes() == (
            tmp_path / "local/report.json"
        ).read_bytes()

    def test_dependent_grid_waits_for_failed_dependency(self, fleet, tmp_path):
        # The dispatcher twin of the local runner's test: the same walk
        # leaves the dependents of a failed grid pending.
        raw = json.loads(json.dumps(SPEC))
        raw["grids"][0]["params"]["rows"] = -1  # first grid fails
        dispatcher = CampaignDispatcher(
            parse_spec(raw), fleet, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        with pytest.raises(CampaignRunError):
            dispatcher.run()
        assert dispatcher.stats["executed"] == 0
        assert dispatcher.stats["failed"] == 3
        assert not list((tmp_path / "run" / "results").glob("*.json"))


class TestNodeLossMidRun:
    def test_cells_reassign_when_a_node_dies_mid_run(self, fleet, local_reports, tmp_path):
        dying_url = fleet[1]
        state = {"completed": 0}

        def flaky_factory(url, **kwargs):
            # These clients carry the in-process gateway's requests to each
            # node: once any result has come back, every request to the
            # dying node — proxied polls and readiness probes alike — fails.
            client = fast_client(url, **kwargs)
            real_request = client.request

            def request(method, path, *args, **kw):
                if url == dying_url and state["completed"] >= 1:
                    raise ServiceUnavailable(url, 1, "simulated node loss")
                record = real_request(method, path, *args, **kw)
                if "result" in record:
                    state["completed"] += 1
                return record

            client.request = request
            return client

        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet, tmp_path / "run",
            poll_interval=0.02, client_factory=flaky_factory,
        )
        stats = dispatcher.run()
        assert stats["report_written"] and stats["failed"] == 0
        lost = next(n for n in stats["nodes"] if n["url"] == dying_url)
        survivor = next(n for n in stats["nodes"] if n["url"] != dying_url)
        assert not lost["alive"] and "simulated node loss" in lost["reason"]
        assert survivor["alive"]
        # The killed node's outstanding cells all landed on the survivor and
        # the merged report is still byte-identical to the local run.
        assert stats["executed"] + stats["skipped_checkpointed"] == 6
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]
        assert (tmp_path / "run/report.csv").read_bytes() == local_reports[1]

    def test_closed_node_is_lost_and_its_cells_fail_over(self, local_reports, tmp_path):
        # A real fault: one of two private nodes stops listening after the
        # first checkpoint.  Its readiness probes fail, the in-process
        # gateway declares it dead and replays its cells on the survivor.
        servers = []
        for _ in range(2):
            server = create_server(port=0, max_workers=2)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        urls = [f"http://127.0.0.1:{server.port}" for server in servers]
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), urls, tmp_path / "run",
            poll_interval=0.02, client_factory=fast_client,
        )
        real_checkpoint = dispatcher.runner.checkpoint
        closed = []

        def checkpoint(*args, **kwargs):
            real_checkpoint(*args, **kwargs)
            if not closed:
                closed.append(urls[1])
                servers[1].close(wait=False)

        dispatcher.runner.checkpoint = checkpoint
        started = time.monotonic()
        try:
            stats = dispatcher.run()
        finally:
            servers[0].close()
            if not closed:
                servers[1].close()
        assert time.monotonic() - started < 5.0
        assert stats["report_written"] and stats["failed"] == 0
        lost, survivor = stats["nodes"][1], stats["nodes"][0]
        assert lost["url"] == urls[1] and not lost["alive"] and lost["reason"]
        assert survivor["alive"]
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]
        assert (tmp_path / "run/report.csv").read_bytes() == local_reports[1]

    def test_all_nodes_dead_raises_dispatch_error(self, tmp_path):
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC),
            ["http://127.0.0.1:1", "http://127.0.0.1:2"],
            tmp_path / "run",
            client_factory=lambda url, **kw: ServiceClient(url, retries=0, backoff=0.0),
        )
        with pytest.raises(DispatchError, match="no reachable service node"):
            dispatcher.run()
        # The run directory is prepared, so a later dispatch/run can resume.
        assert (tmp_path / "run" / "manifest.json").is_file()
        (root,) = spans_named(dispatcher._root_span.trace_id, "campaign.dispatch")
        assert root["status"] == "error" and "no reachable service node" in root["error"]

    def test_fleet_lost_mid_run_finishes_every_cell_span(self, tmp_path):
        # Both nodes stop listening after the first checkpoint: the dispatch
        # fails, and every cell span it opened is still finished, with the
        # error, so the trace shows where the run died.
        servers = []
        for _ in range(2):
            server = create_server(port=0, max_workers=2)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), [f"http://127.0.0.1:{s.port}" for s in servers],
            tmp_path / "run", poll_interval=0.02, client_factory=fast_client,
        )
        real_checkpoint = dispatcher.runner.checkpoint

        def checkpoint(*args, **kwargs):
            real_checkpoint(*args, **kwargs)
            for server in servers:
                server.close(wait=False)

        dispatcher.runner.checkpoint = checkpoint
        try:
            with pytest.raises(DispatchError):
                dispatcher.run()
        finally:
            for server in servers:
                server.close()
        trace_id = dispatcher._root_span.trace_id
        (root,) = spans_named(trace_id, "campaign.dispatch")
        assert root["status"] == "error"
        cells = {span["attrs"]["cell"]: span for span in spans_named(trace_id, "dispatch.cell")}
        # The whole first grid was in flight (the window holds 16 cells).
        assert {"quant/0", "quant/1", "quant/2"} <= set(cells)
        checkpointed = len(list((tmp_path / "run" / "results").glob("*.json")))
        failed = [span for span in cells.values() if span["status"] == "error"]
        assert len(cells) - len(failed) == checkpointed
        assert failed and all("DispatchError" in span["error"] for span in failed)

    def test_registry_skew_refuses_the_node(self, fleet, local_reports, tmp_path):
        # A node built from a different scenario registry canonicalizes jobs
        # differently; its /v1/health digest gives it away at admission.
        skewed_registry = build_default_registry()
        skewed_registry.register(
            JobType("skew_only", "exists on the skewed node only", lambda: 0)
        )
        server = create_server(port=0, max_workers=1, registry=skewed_registry)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        skewed_url = f"http://127.0.0.1:{server.port}"
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(SPEC), [skewed_url, fleet[1]], tmp_path / "run",
                poll_interval=0.02, client_factory=fast_client,
            )
            stats = dispatcher.run()
        finally:
            server.close()
        skewed = next(n for n in stats["nodes"] if n["url"] == skewed_url)
        assert not skewed["alive"] and "registry skew" in skewed["reason"]
        assert stats["report_written"]
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]


class TestBackpressureAndLivelock:
    def test_saturated_node_is_not_marked_dead(self, tmp_path, local_reports):
        # One node whose queue bound is far below the dispatch window: 429s
        # are backpressure, not node loss — the dispatch must still finish.
        server = create_server(port=0, max_workers=1, max_queued=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(SPEC),
                [f"http://127.0.0.1:{server.port}"],
                tmp_path / "run",
                poll_interval=0.02,
                max_inflight=6,
                client_factory=lambda url, **kw: ServiceClient(
                    url, retries=1, backoff=0.01
                ),
            )
            stats = dispatcher.run()
        finally:
            server.close()
            thread.join(timeout=10)
        assert stats["report_written"]
        (node,) = stats["nodes"]
        assert node["alive"], "a busy node must never be declared dead"
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]

    def test_persistent_result_error_fails_the_cell_not_the_loop(self, fleet, tmp_path):
        from repro.service.client import ServiceRequestError

        def poisoned_factory(url, **kwargs):
            # Every fetch that would return a result answers 500: the waited
            # GET that carries it, and the result route.
            client = fast_client(url, **kwargs)
            real_job = client.job

            def job(job_id, wait=None):
                record = real_job(job_id, wait=wait)
                if "result" in record:
                    raise ServiceRequestError(500, {"error": "poisoned"}, url)
                return record

            def result(job_id):
                raise ServiceRequestError(500, {"error": "poisoned"}, url)

            client.job = job
            client.result = result
            return client

        from repro.campaign import CampaignRunError

        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet[:1], tmp_path / "run",
            poll_interval=0.01, client_factory=poisoned_factory,
        )
        with pytest.raises(CampaignRunError) as raised:
            dispatcher.run()
        assert dispatcher.stats["failed"] >= 1
        gave_up = f"gave up after {MAX_CELL_ATTEMPTS} attempt(s)"
        assert all(reason.startswith(gave_up) for _, reason in raised.value.failures)
        # Bounded retries, not a livelock: the run ended and recorded stats.


def counting_client(url, **kwargs):
    """A :func:`fast_client` that logs each request as ``(time, "METHOD path")``."""
    client = fast_client(url, **kwargs)
    client.sent = []
    real_request = client.request

    def request(method, path, *args, **kw):
        client.sent.append((time.monotonic(), f"{method} {path}"))
        return real_request(method, path, *args, **kw)

    client.request = request
    return client


class TestLongPoll:
    def test_each_cell_costs_a_submit_and_one_waited_get(self, fleet, local_reports, tmp_path):
        # One node, one cell in flight: the waited GET on the only
        # outstanding cell answers with its result, so nothing else is asked.
        dispatcher = CampaignDispatcher(
            parse_spec(SPEC), fleet[:1], tmp_path / "run",
            max_inflight=1, client_factory=counting_client,
        )
        stats = dispatcher.run()
        assert stats["executed"] == 6 and stats["client"]["retries"] == 0
        assert (tmp_path / "run/report.json").read_bytes() == local_reports[0]
        sent = [request for _, request in dispatcher.client.sent]
        assert sent[0] == "GET /v1/health"
        assert len(sent[1:]) == 2 * 6
        for submit, waited in zip(sent[1::2], sent[2::2], strict=True):
            assert submit == "POST /v1/jobs"
            assert waited.startswith("GET /v1/jobs/") and waited.endswith("?wait=1.0")

    def test_synthetic_queued_answers_do_not_spin(self, tmp_path, monkeypatch):
        # The only node stops listening while its one cell runs.  The
        # in-process gateway then answers every wait at once with a
        # synthetic "queued" until it declares the node dead; the
        # dispatcher must back off meanwhile, not re-ask at full speed.
        from repro.campaign import dispatch

        monkeypatch.setattr(dispatch, "_DEAD_AFTER", 1.0)
        monkeypatch.setattr(dispatch, "_SUSPECT_AFTER", 0.5)
        release, running = threading.Event(), threading.Event()

        def blocker():
            running.set()
            release.wait(30)
            return {}

        registry = build_default_registry()
        registry.add("blocker", "runs until the test releases it", blocker)
        server = create_server(port=0, max_workers=1, registry=registry)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        closed_at = []

        def close_when_running():
            if running.wait(30):
                server.close(wait=False)
                closed_at.append(time.monotonic())

        closer = threading.Thread(target=close_when_running, daemon=True)
        closer.start()
        dispatcher = CampaignDispatcher(
            parse_spec({"name": "blocked", "grids": [{"name": "g", "scenario": "blocker"}]}),
            [f"http://127.0.0.1:{server.port}"], tmp_path / "run",
            registry=registry, poll_interval=0.02, client_factory=counting_client,
        )
        try:
            with pytest.raises(DispatchError):
                dispatcher.run()
        finally:
            release.set()
            closer.join(timeout=10)
        ended = time.monotonic()
        assert closed_at, "the cell never started"
        after = [at for at, _ in dispatcher.client.sent if at >= closed_at[0]]
        seconds = ended - closed_at[0]
        # A busy loop makes hundreds of requests a second here.
        assert len(after) <= 5 + 10 * seconds, (len(after), seconds)


class TestDispatcherValidation:
    def test_requires_at_least_one_endpoint(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            CampaignDispatcher(parse_spec(SPEC), [], tmp_path / "run")

    def test_rejects_non_positive_window(self, tmp_path):
        with pytest.raises(ValueError, match="max_inflight"):
            CampaignDispatcher(
                parse_spec(SPEC), ["http://x"], tmp_path / "run", max_inflight=0
            )
