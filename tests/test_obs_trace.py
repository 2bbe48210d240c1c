"""Tests for repro.obs tracing: span mechanics, propagation, and the
end-to-end federated span tree.

The load-bearing assertion lives in :class:`TestFederatedSpanTree`: a
campaign cell dispatched to remote serve nodes yields ONE connected tree —
client cell span -> node HTTP span -> worker job span -> codec span ->
pipeline stage spans — queryable from ``stats["trace_id"]``.
"""

from __future__ import annotations

import threading

import pytest

from repro.campaign import parse_spec
from repro.campaign.dispatch import CampaignDispatcher
from repro.gateway import GatewayAgent, create_gateway
from repro.obs import trace as obs_trace
from repro.obs.trace import (
    TraceBuffer,
    TraceContext,
    TraceLog,
    build_span_tree,
    current_context,
    format_traceparent,
    get_recorder,
    parse_traceparent,
)
from repro.service import create_server
from repro.service.client import ServiceClient
from repro.service.registry import build_default_registry
from repro.service.workers import WorkerPool


# --------------------------------------------------------------------------- #
# Span and context mechanics
# --------------------------------------------------------------------------- #


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert parse_traceparent(format_traceparent(ctx)) == ctx

    @pytest.mark.parametrize(
        "value",
        [None, "", "garbage", "ab" * 16, f"{'ab' * 16}-short",
         f"{'zz' * 16}-{'cd' * 8}", f"{'ab' * 15}-{'cd' * 8}"],
    )
    def test_malformed_values_parse_to_none(self, value):
        assert parse_traceparent(value) is None

    def test_whitespace_and_case_tolerated(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert parse_traceparent(f"  {format_traceparent(ctx).upper()}  ") == ctx


class TestSpans:
    def test_nesting_and_context_restore(self):
        assert current_context() is None
        with obs_trace.span("outer") as outer:
            assert current_context() == outer.context
            with obs_trace.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            assert current_context() == outer.context
        assert current_context() is None

    def test_exception_marks_error_and_propagates(self):
        with pytest.raises(ValueError):
            with obs_trace.span("failing") as failing:
                raise ValueError("bad input")
        assert failing.status == "error"
        assert "ValueError: bad input" in failing.error
        assert current_context() is None

    def test_start_span_without_context_mints_trace(self):
        span = obs_trace.start_span("root")
        assert len(span.trace_id) == 32
        assert span.parent_id is None
        span.finish()

    def test_start_span_with_explicit_parent(self):
        parent = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        span = obs_trace.start_span("child", parent=parent)
        assert span.trace_id == parent.trace_id
        assert span.parent_id == parent.span_id
        span.finish()

    def test_finish_is_idempotent(self):
        span = obs_trace.start_span("once")
        span.finish()
        duration = span.duration
        span.finish(error="ignored: already finished")
        assert span.duration == duration
        assert span.status == "ok"
        assert span.error is None

    def test_recorder_sees_finished_spans(self):
        with obs_trace.span("recorded", attrs={"k": "v"}) as span:
            pass
        records = get_recorder().buffer.spans_for_trace(span.trace_id)
        assert [r["name"] for r in records] == ["recorded"]
        assert records[0]["attrs"] == {"k": "v"}


class TestSinks:
    def test_buffer_is_a_ring(self):
        buffer = TraceBuffer(capacity=3)
        for index in range(5):
            buffer({"span_id": f"s{index}", "trace_id": "t"})
        assert [r["span_id"] for r in buffer.spans()] == ["s2", "s3", "s4"]

    def test_trace_log_round_trip_skips_torn_lines(self, tmp_path):
        log = TraceLog(tmp_path / "trace.jsonl")
        log({"span_id": "a", "trace_id": "t"})
        log({"span_id": "b", "trace_id": "t"})
        with log.path.open("a", encoding="utf-8") as handle:
            handle.write('{"span_id": "torn-by-cra')
        records = log.read()
        assert [r["span_id"] for r in records] == ["a", "b"]
        assert log.write_errors == 0

    def test_broken_sink_never_breaks_traced_code(self):
        recorder = get_recorder()

        def broken_sink(record):
            raise RuntimeError("sink exploded")

        recorder.add_sink(broken_sink)
        try:
            with obs_trace.span("resilient") as span:
                pass
        finally:
            recorder.remove_sink(broken_sink)
        assert recorder.buffer.spans_for_trace(span.trace_id)


class TestSpanTree:
    def test_nests_children_and_keeps_orphans_as_roots(self):
        spans = [
            {"span_id": "root", "parent_id": None, "start_time": 1.0},
            {"span_id": "child", "parent_id": "root", "start_time": 2.0},
            {"span_id": "grand", "parent_id": "child", "start_time": 3.0},
            {"span_id": "orphan", "parent_id": "missing", "start_time": 4.0},
        ]
        tree = build_span_tree(spans)
        assert [node["span_id"] for node in tree] == ["root", "orphan"]
        assert tree[0]["children"][0]["span_id"] == "child"
        assert tree[0]["children"][0]["children"][0]["span_id"] == "grand"


# --------------------------------------------------------------------------- #
# Propagation through the worker pool and the journal
# --------------------------------------------------------------------------- #


class TestWorkerPoolPropagation:
    def test_job_span_joins_the_submitters_trace(self):
        pool = WorkerPool(build_default_registry(), max_workers=1)
        try:
            with obs_trace.span("test.submit") as parent:
                job = pool.submit(
                    "codec_compress", {"codec": "prune", "rows": 16, "cols": 64, "seed": 21}
                )
            assert job.wait(30)
            assert job.trace_id == parent.trace_id
            assert job.parent_span_id == parent.span_id
            assert job.worker  # the executing thread identified itself
        finally:
            pool.shutdown()
        spans = get_recorder().buffer.spans_for_trace(parent.trace_id)
        job_spans = [s for s in spans if s["name"] == "job.run"]
        assert len(job_spans) == 1
        assert job_spans[0]["parent_id"] == parent.span_id
        assert job_spans[0]["attrs"]["job_id"] == job.job_id
        # The codec work nests under the job span, in the same trace.
        codec_spans = [s for s in spans if s["name"] == "codec.compress"]
        assert codec_spans and codec_spans[0]["parent_id"] == job_spans[0]["span_id"]

    def test_submit_without_context_mints_a_trace(self):
        pool = WorkerPool(build_default_registry(), max_workers=1)
        try:
            job = pool.submit("prune_tensor", {"rows": 16, "cols": 64, "seed": 3})
            assert job.wait(30)
        finally:
            pool.shutdown()
        assert job.trace_id and len(job.trace_id) == 32


class TestJournalPropagation:
    def test_replay_preserves_trace_identity(self, tmp_path):
        from repro.service.journal import JobJournal

        journal = JobJournal(tmp_path)
        pool = WorkerPool(build_default_registry(), max_workers=1, journal=journal)
        try:
            job = pool.submit("prune_tensor", {"rows": 16, "cols": 64, "seed": 5})
            assert job.wait(30)
        finally:
            pool.shutdown()
        original_trace = job.trace_id

        replay_journal = JobJournal(tmp_path)
        replay_pool = WorkerPool(
            build_default_registry(), max_workers=1, journal=replay_journal
        )
        try:
            stats = replay_journal.replay(replay_pool)
            assert stats["replayed"] == 1
            restored = replay_pool.store.get(job.job_id)
            assert restored is not None
            assert restored.trace_id == original_trace
        finally:
            replay_pool.shutdown()


# --------------------------------------------------------------------------- #
# End-to-end: federated dispatch produces one connected span tree per cell
# --------------------------------------------------------------------------- #

#: Two pipeline cells (distinct seeds: no cache hits, every cell executes).
TRACE_SPEC = {
    "name": "trace-test",
    "grids": [
        {
            "name": "pipe",
            "scenario": "codec_compress",
            "params": {
                "rows": 16,
                "cols": 64,
                "stages": [
                    {"codec": "prune"},
                    {"codec": "ptq", "params": {"bits": 6}},
                ],
            },
            "sweep": {"seed": [31, 32]},
        },
    ],
}


def _names(children):
    return sorted(node["name"] for node in children)


class TestFederatedSpanTree:
    def test_dispatch_yields_one_connected_tree(self, tmp_path):
        servers, threads = [], []
        for _ in range(2):
            server = create_server(port=0, max_workers=2)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            servers.append(server)
            threads.append(thread)
        endpoints = [f"http://127.0.0.1:{server.port}" for server in servers]
        try:
            dispatcher = CampaignDispatcher(
                parse_spec(TRACE_SPEC), endpoints, tmp_path / "run", poll_interval=0.02
            )
            stats = dispatcher.run()
        finally:
            for server, thread in zip(servers, threads, strict=False):
                server.close()
                thread.join(timeout=10)

        assert stats["executed"] == 2
        trace_id = stats["trace_id"]
        assert trace_id
        # Both serve nodes run in this process, so the process recorder holds
        # the client-side AND node-side spans of the trace.
        spans = get_recorder().buffer.spans_for_trace(trace_id)
        tree = build_span_tree(spans)

        assert len(tree) == 1, "the whole dispatch must be one connected tree"
        root = tree[0]
        assert root["name"] == "campaign.dispatch"
        assert root["status"] == "ok"

        cells = root["children"]
        assert _names(cells) == ["dispatch.cell", "dispatch.cell"]
        assert {cell["attrs"]["cell"] for cell in cells} == {"pipe/0", "pipe/1"}
        for cell in cells:
            # Exactly the submit POST: poll GETs stay out of the trace.  The
            # in-process gateway behind ``endpoints`` is one hop on the way.
            assert _names(cell["children"]) == ["gateway.request"]
            hop = cell["children"][0]
            assert hop["attrs"]["method"] == "POST"
            assert hop["attrs"]["route"] == "/v1/jobs"

            assert _names(hop["children"]) == ["http.request"]
            http = hop["children"][0]
            assert http["attrs"]["method"] == "POST"
            assert http["attrs"]["route"] == "/v1/jobs"

            assert _names(http["children"]) == ["job.run"]
            job = http["children"][0]
            assert job["attrs"]["scenario"] == "codec_compress"
            assert job["attrs"]["cache_hit"] is False

            assert _names(job["children"]) == ["codec.compress"]
            codec = job["children"][0]
            assert codec["attrs"]["codec"] == "pipeline"

            stage_spans = codec["children"]
            assert _names(stage_spans) == ["pipeline.stage", "pipeline.stage"]
            assert [s["attrs"]["codec"] for s in stage_spans] == ["prune", "ptq"]

    def test_trace_endpoint_serves_the_job_tree(self, tmp_path):
        server = create_server(port=0, max_workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            record = client.submit(
                "codec_compress",
                {"codec": "prune", "rows": 16, "cols": 64, "seed": 41},
                wait=30.0,
            )
            assert record["state"] == "done"
            payload = client.job_trace(record["job_id"])
        finally:
            server.close()
            thread.join(timeout=10)

        assert payload["job_id"] == record["job_id"]
        assert payload["trace_id"] == record["trace_id"]
        assert payload["span_count"] >= 2
        roots = payload["trace"]
        job_spans = [
            node for root in roots
            for node in ([root] + root["children"])
            if node["name"] == "job.run"
        ]
        assert len(job_spans) == 1
        assert _names(job_spans[0]["children"]) == ["codec.compress"]


class TestTraceLogPerServer:
    """A server's ``trace.jsonl`` holds the spans its own handlers and
    workers started, even with other servers in the same process."""

    def test_routed_job_lands_only_in_its_nodes_log(self, tmp_path):
        gateway = create_gateway(port=0, state_dir=str(tmp_path / "gateway"))
        nodes = [
            create_server(port=0, max_workers=1, journal_dir=str(tmp_path / f"node{index}"))
            for index in range(2)
        ]
        threads = [
            threading.Thread(target=server.serve_forever, daemon=True)
            for server in (gateway, *nodes)
        ]
        for thread in threads:
            thread.start()
        gateway_url = f"http://127.0.0.1:{gateway.port}"
        agents = []
        try:
            for server in nodes:
                agent = GatewayAgent(
                    gateway_url, f"http://127.0.0.1:{server.port}", server,
                    heartbeat_interval=30.0,
                )
                agent.start()
                agents.append(agent)
            record = ServiceClient(gateway_url).submit(
                "codec_compress",
                {"codec": "prune", "rows": 16, "cols": 64, "seed": 43},
                wait=30.0,
            )
            assert record["state"] == "done"
        finally:
            for agent in agents:
                agent.stop()
            for server in (gateway, *nodes):
                server.close()
            for thread in threads:
                thread.join(timeout=10)

        logs = [server.trace_log.read() for server in nodes]
        ran = [
            index for index, server in enumerate(nodes)
            if any(job.trace_id == record["trace_id"] for job in server.pool.store.jobs())
        ]
        assert len(ran) == 1
        own, other = logs[ran[0]], logs[1 - ran[0]]

        job_spans = [span for span in own if span["trace_id"] == record["trace_id"]]
        assert {"http.request", "job.run", "codec.compress"} <= {s["name"] for s in job_spans}
        assert not [span for span in other if span["trace_id"] == record["trace_id"]]
        for log in logs:
            assert "gateway.request" not in {span["name"] for span in log}
        assert not {s["span_id"] for s in own} & {s["span_id"] for s in other}

    def test_lone_server_logs_its_request_job_and_codec_spans(self, tmp_path):
        server = create_server(port=0, max_workers=1, journal_dir=str(tmp_path / "node"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            record = ServiceClient(f"http://127.0.0.1:{server.port}").submit(
                "codec_compress",
                {
                    "rows": 16, "cols": 64, "seed": 44,
                    "stages": [{"codec": "prune"}, {"codec": "ptq", "params": {"bits": 4}}],
                },
                wait=30.0,
            )
            assert record["state"] == "done"
        finally:
            server.close()
            thread.join(timeout=10)

        names = [
            span["name"] for span in server.trace_log.read()
            if span["trace_id"] == record["trace_id"]
        ]
        assert sorted(names) == [
            "codec.compress", "http.request", "job.run", "pipeline.stage", "pipeline.stage",
        ]
