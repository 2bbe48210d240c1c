"""The benchmark's own tests: attribution arithmetic, wrapping, layer use.

Run from the repository root (not collected by the repository's test suite,
because the layer-use checks run whole traced workloads, ~3 minutes)::

    PYTHONPATH=src python3 -m pytest perfbench/check_layers.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Span, Tracer, attribute  # noqa: E402
from workloads import campaign_spec  # noqa: E402


def span(name, thread, seq, start, end, nested=False):
    return Span(name, name.split(".", 1)[0], thread, seq, start, end, nested)


def test_single_thread_self_time_is_span_minus_children():
    spans = [
        span("eval.figure11", 1, 0, 10, 110),
        span("quant.clip_search", 1, 1, 20, 50),
        span("core.prune", 1, 2, 60, 70),
    ]
    result = attribute(spans, 0, 120)
    assert result.name_s["eval.figure11"] == pytest.approx(60e-9)
    assert result.name_s["quant.clip_search"] == pytest.approx(30e-9)
    assert result.unattributed_s == pytest.approx(20e-9)
    assert result.inclusive_s["eval.figure11"] == pytest.approx(100e-9)


def test_waiting_thread_yields_to_working_threads_and_parts_add_up():
    spans = [
        # Thread 1 waits in an HTTP round trip while thread 2 serves it.
        span("client.request", 1, 0, 0, 100),
        span("gateway.http", 2, 1, 20, 80),
        span("service.pool_submit", 2, 2, 40, 60),
        # Thread 3 works concurrently with thread 2 for a while.
        span("codecs.compress", 3, 3, 50, 90),
    ]
    result = attribute(spans, 0, 120)
    assert result.layer_s["client"] == pytest.approx(30e-9)  # 0-20, 90-100
    assert result.layer_s["service"] == pytest.approx(15e-9)  # 40-50, half of 50-60
    assert result.layer_s["codecs"] == pytest.approx(25e-9)
    total = sum(result.layer_s.values()) + result.unattributed_s
    assert total == pytest.approx(result.wall_s)


def test_nested_same_name_calls_count_once():
    spans = [
        span("accelerators.run_model", 1, 0, 0, 100),
        span("accelerators.run_model", 1, 1, 10, 90, nested=True),
    ]
    result = attribute(spans, 0, 100)
    assert result.calls["accelerators.run_model"] == 1
    assert result.name_s["accelerators.run_model"] == pytest.approx(100e-9)


def test_install_patches_every_importer_and_uninstall_restores():
    import repro.accelerators.bitwave as bitwave
    import repro.eval.experiments  # noqa: F401  (imports the names under test)
    import repro.quant as quant
    from repro.quant import bitflip

    original = bitflip.bitflip_tensor
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert bitwave.bitflip_tensor is not original
        assert quant.bitflip_tensor is bitwave.bitflip_tensor is bitflip.bitflip_tensor
    finally:
        tracer.uninstall()
    assert bitwave.bitflip_tensor is original
    assert quant.bitflip_tensor is original


def traced_run(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    unattributed = metrics[f"{workload}.unattributed_s"] / metrics["trace.wall_s"]
    assert shares + unattributed == pytest.approx(1.0, abs=1e-9)
    return metrics


def test_gateway_cached_bypasses_compute_layers():
    metrics = traced_run("gateway_cached")
    for name in ("quant.clip_search_calls", "quant.bitflip_calls",
                 "core.prune_calls", "codecs.compress_calls"):
        assert metrics[name] == 0, name
    assert metrics["service.cache_hit_ratio"] == 1.0
    assert metrics["gateway.replica_records_per_req"] > 0


def test_campaign_fresh_misses_every_cell():
    metrics = traced_run("campaign_fresh")
    from repro.campaign import expand_spec, parse_spec

    cells = len(expand_spec(parse_spec(campaign_spec(0))).jobs)
    assert metrics["service.cache_hit_ratio"] == 0.0
    assert metrics["codecs.compress_calls"] == cells
    assert metrics["quant.clip_search_calls"] > 0


def test_paper_cold_warm_pass_hits_the_memo_more():
    metrics = traced_run("paper_cold")
    assert metrics["core.memo_tensor_hit_ratio"] > metrics["core.memo_tensor_hit_ratio_cold"]
    assert metrics["nn.synthesize_calls"] > 0
    for layer in ("codecs", "service", "node", "gateway", "client", "campaign"):
        assert metrics[f"{layer}.share"] == 0, layer
