"""What the gateway front door costs per cached request.

Submits the same cached job straight to a ``repro serve`` node and through a
``repro gateway`` fronting that same node, so the difference is exactly the
control-plane tax: canonicalize + digest, hash-ring routing, the replica-journal
submit record, quota accounting, and one extra HTTP hop.  The overhead guard
bounds the tax as a ratio to the direct path, so a quadratic ring lookup or an
accidental fsync on the proxy path fails the suite on any machine.  Absolute
request-path cost is tracked by ``perfbench``'s ``gateway_cached`` workload.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.eval.reporting import format_table
from repro.gateway import GatewayAgent, create_gateway
from repro.service import create_server
from repro.service.client import ServiceClient

#: The timed submission: small enough that the cold run is instant, so every
#: timed request is a result-cache hit and the measurement is pure
#: request-path overhead.
JOB = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32}}


@pytest.fixture(scope="module")
def fabric():
    """One gateway fronting one in-process node, both warmed up."""
    gateway = create_gateway(
        port=0, suspect_after=5.0, dead_after=60.0, sweep_interval=1.0
    )
    threading.Thread(target=gateway.serve_forever, daemon=True).start()
    gateway_url = f"http://127.0.0.1:{gateway.port}"
    server = create_server(port=0, max_workers=2)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    node_url = f"http://127.0.0.1:{server.port}"
    agent = GatewayAgent(gateway_url, node_url, server, heartbeat_interval=0.5)
    agent.start()

    # Warm the node's result cache so the timed path never recomputes.
    node_client = ServiceClient(node_url, timeout=30.0)
    record = node_client.submit(JOB["type"], JOB["params"], wait=60.0)
    assert record["state"] == "done", record

    yield gateway_url, node_url
    agent.stop()
    server.close()
    gateway.close()


def _submit_cached(client: ServiceClient) -> None:
    record = client.request("POST", "/v1/jobs", JOB)
    assert record.get("cache_hit") is True, record


def test_bench_node_submit_cached(fabric):
    _, node_url = fabric
    _submit_cached(ServiceClient(node_url, timeout=30.0))


def test_bench_gateway_submit_cached(fabric):
    gateway_url, _ = fabric
    _submit_cached(ServiceClient(gateway_url, timeout=30.0))


def test_gateway_routing_overhead_is_bounded(fabric):
    """The per-request control-plane tax stays within an order of magnitude.

    Compares mean cached-submit latency through the gateway against the
    direct node path over the same connectionless client.  The bound is
    deliberately loose (10x + 50 ms absolute) — it absorbs CI-runner noise
    while still catching a structural slip like routing work growing with
    ring size or the replica journal fsyncing per request.
    """
    gateway_url, node_url = fabric
    rounds = 30

    def mean_seconds(url: str) -> float:
        client = ServiceClient(url, timeout=30.0)
        _submit_cached(client)  # connection/codepath warm-up, untimed
        start = time.perf_counter()
        for _ in range(rounds):
            _submit_cached(client)
        return (time.perf_counter() - start) / rounds

    direct = mean_seconds(node_url)
    via_gateway = mean_seconds(gateway_url)
    overhead = via_gateway - direct

    print()
    print(
        format_table(
            [
                {"path": "node direct", "mean_ms": direct * 1000},
                {"path": "via gateway", "mean_ms": via_gateway * 1000},
                {"path": "overhead", "mean_ms": overhead * 1000},
            ],
            title="Gateway front-door tax (cached submit)",
        )
    )
    assert via_gateway <= direct * 10 + 0.050, (
        f"gateway tax too high: direct {direct*1000:.2f}ms, "
        f"via gateway {via_gateway*1000:.2f}ms"
    )
