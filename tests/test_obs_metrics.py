"""Tests for repro.obs metrics: registry semantics, exposition, live scrapes.

The process-wide registry is shared by every test in the process, so the
assertions here never depend on absolute global counts — each test reads its
own families or deltas.
"""

from __future__ import annotations

import ast
import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    declare_standard_families,
    get_metrics,
)
from repro.obs.timing import timed
from repro.service import create_server
from repro.service.client import ServiceClient

PRUNE_PARAMS = {"rows": 16, "cols": 64, "num_columns": 2}


# --------------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------------- #


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "test counter")
        assert counter.value() == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "", ("kind",))
        counter.inc(kind="read")
        counter.inc(kind="read")
        counter.inc(kind="write")
        assert counter.value(kind="read") == 2
        assert counter.value(kind="write") == 1
        assert counter.value(kind="never") == 0

    def test_cannot_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("kind",))
        with pytest.raises(MetricError):
            counter.inc()
        with pytest.raises(MetricError):
            counter.inc(kind="x", extra="y")


class TestGauge:
    def test_inc_dec_set(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value() == 1
        gauge.set(7)
        assert gauge.value() == 7
        gauge.dec(10)
        assert gauge.value() == -3


class TestHistogram:
    def test_observe_updates_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)  # beyond every bound: only +Inf
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(100.55)
        samples = dict(
            ((name, labels.get("le")), value)
            for name, labels, value in histogram.samples()
        )
        assert samples[("lat_seconds_bucket", "0.1")] == 1
        assert samples[("lat_seconds_bucket", "1")] == 2
        assert samples[("lat_seconds_bucket", "10")] == 2
        assert samples[("lat_seconds_bucket", "+Inf")] == 3
        assert samples[("lat_seconds_count", None)] == 3

    def test_buckets_are_sorted_and_default(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(5.0, 1.0, 2.0))
        assert histogram.buckets == (1.0, 2.0, 5.0)
        assert registry.histogram("h2").buckets == DEFAULT_BUCKETS

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "", ("a",))
        assert registry.counter("x_total", "", ("a",)) is first

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")
        with pytest.raises(MetricError):
            registry.histogram("x_total")

    def test_label_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "", ("a",))
        with pytest.raises(MetricError):
            registry.counter("x_total", "", ("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("bad name")
        with pytest.raises(MetricError):
            registry.counter("ok_total", "", ("0bad",))
        with pytest.raises(MetricError):
            registry.histogram("ok_seconds", "", ("le",))  # reserved

    def test_reset_zeroes_but_keeps_declarations(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        labelled = registry.counter("y_total", "", ("k",))
        counter.inc(5)
        labelled.inc(k="a")
        registry.reset()
        assert counter.value() == 0
        assert labelled.value(k="a") == 0
        assert "x_total" in registry.names()
        # The label-less zero sample survives the reset.
        assert ("x_total", {}, 0.0) in counter.samples()


class TestExposition:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "Requests served.", ("route",))
        counter.inc(route='api "v1"\n')
        text = registry.render_prometheus()
        assert "# HELP req_total Requests served." in text
        assert "# TYPE req_total counter" in text
        # Label values escape quotes and newlines; integers render bare.
        assert r'req_total{route="api \"v1\"\n"} 1' in text
        assert text.endswith("\n")

    def test_standard_families_scrapeable_before_traffic(self):
        registry = MetricsRegistry()
        declare_standard_families(registry)
        text = registry.render_prometheus()
        for family in (
            "repro_http_requests_total",
            "repro_job_queue_depth",
            "repro_cache_hits_total",
            "repro_codec_compress_seconds",
        ):
            assert f"# TYPE {family} " in text
        # Label-less families expose a numeric zero sample immediately.
        assert "repro_job_queue_depth 0" in text
        assert "repro_cache_hits_total 0" in text

    def test_json_exposition(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("k",)).inc(k="v")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        payload = registry.to_jsonable()
        assert payload["families"]["x_total"]["type"] == "counter"
        assert payload["families"]["x_total"]["series"] == [
            {"labels": {"k": "v"}, "value": 1.0}
        ]
        family = payload["families"]["h_seconds"]
        assert family["bucket_bounds"] == [1.0]
        assert family["series"][0]["count"] == 1
        json.dumps(payload)  # fully serializable


class TestTimed:
    def test_observes_operation_histogram(self):
        histogram = get_metrics().histogram(
            "repro_operation_seconds", labelnames=("operation",)
        )
        before = histogram.count(operation="test.op")
        with timed("test.op") as timer:
            pass
        assert histogram.count(operation="test.op") == before + 1
        assert timer.seconds >= 0

    def test_observes_even_on_raise(self):
        histogram = get_metrics().histogram(
            "repro_operation_seconds", labelnames=("operation",)
        )
        before = histogram.count(operation="test.raise")
        with pytest.raises(RuntimeError):
            with timed("test.raise"):
                raise RuntimeError("boom")
        assert histogram.count(operation="test.raise") == before + 1


# --------------------------------------------------------------------------- #
# GET /v1/metrics against a live server
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def server():
    server = create_server(port=0, max_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def base(server):
    return f"http://127.0.0.1:{server.port}"


class TestMetricsEndpoint:
    def test_prometheus_scrape(self, base):
        with urllib.request.urlopen(base + "/v1/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        for family in (
            "repro_http_requests_total",
            "repro_job_queue_depth",
            "repro_cache_hits_total",
            "repro_codec_compress_seconds",
        ):
            assert f"# TYPE {family} " in text

    def test_scrape_reflects_served_traffic(self, base):
        client = ServiceClient(base)
        record = client.submit(
            "codec_compress",
            {"codec": "prune", "rows": 16, "cols": 64, "seed": 11},
            wait=30.0,
        )
        assert record["state"] == "done"
        # The POST's counter increment lands after its response is written
        # (the handler's finally), so give the scrape a moment to see it.
        expected = 'method="POST",route="/v1/jobs",status="200"'
        deadline = time.time() + 5.0
        while True:
            text = client.metrics()
            assert isinstance(text, str)
            if expected in text or time.time() > deadline:
                break
            time.sleep(0.02)
        # The request counter saw the submit POST on its patterned route.
        assert expected in text
        # And the codec latency histogram saw the compression.
        assert 'repro_codec_compress_seconds_count{codec="prune"}' in text

    def test_json_format(self, base):
        payload = ServiceClient(base).metrics(format="json")
        families = payload["families"]
        assert families["repro_http_requests_total"]["type"] == "counter"
        assert families["repro_codec_compress_seconds"]["type"] == "histogram"

    def test_unknown_format_is_400(self, base):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/v1/metrics?format=yaml")
        assert excinfo.value.code == 400

    def test_legacy_unprefixed_path_is_gone(self, base):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/metrics")
        assert excinfo.value.code == 404


class TestMetricsSurviveRestart:
    def test_families_present_after_journal_replay(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{first.port}")
            record = client.submit("prune_tensor", PRUNE_PARAMS, wait=30.0)
            assert record["state"] == "done"
        finally:
            first.close()
            thread.join(timeout=10)

        jobs_total = get_metrics().counter(
            "repro_jobs_total", labelnames=("scenario", "event")
        )
        restored_before = jobs_total.value(scenario="prune_tensor", event="restored")

        second = create_server(port=0, max_workers=2, journal_dir=journal_dir)
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        try:
            assert second.replay_stats["replayed"] >= 1
            text = ServiceClient(f"http://127.0.0.1:{second.port}").metrics()
        finally:
            second.close()
            thread.join(timeout=10)

        # Every standard family is scrapeable on the fresh process/server, and
        # the replay itself is visible as restored-job events.
        for family in (
            "repro_http_requests_total",
            "repro_job_queue_depth",
            "repro_cache_hits_total",
            "repro_codec_compress_seconds",
            "repro_journal_appends_total",
        ):
            assert f"# TYPE {family} " in text
        restored_after = jobs_total.value(scenario="prune_tensor", event="restored")
        assert restored_after >= restored_before + 1


# --------------------------------------------------------------------------- #
# One declaration per family
# --------------------------------------------------------------------------- #

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
METRICS_MODULE = SRC_ROOT / "obs" / "metrics.py"


def _metric_name_calls(methods: set[str]):
    """``(path, line, method, name)`` of every ``.<method>("repro_...")`` call in src."""
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in methods
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("repro_")
            ):
                yield path, node.lineno, node.func.attr, node.args[0].value


class TestFamiliesDeclaredOnce:
    def test_no_family_is_declared_outside_obs_metrics(self):
        """``declare_standard_families`` is the one declaration of every
        ``repro_*`` family; instrumentation sites take their handles with
        ``get_metrics().get(name)``, so no second help text can drift."""
        offenders = [
            f"{path.relative_to(SRC_ROOT)}:{line} {method}({name!r})"
            for path, line, method, name in _metric_name_calls(
                {"counter", "gauge", "histogram"}
            )
            if path != METRICS_MODULE
        ]
        assert offenders == []

    def test_every_site_handle_names_a_declared_family(self):
        # A typo in a handle lookup would be ``None`` until first use.
        declared = set(get_metrics().names())
        unknown = [
            f"{path.relative_to(SRC_ROOT)}:{line} {name}"
            for path, line, _method, name in _metric_name_calls({"get"})
            if name not in declared
        ]
        assert unknown == []
