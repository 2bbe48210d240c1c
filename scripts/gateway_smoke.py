#!/usr/bin/env python
"""CI gateway smoke: routing affinity, node death, failover, metrics.

Boots one in-process gateway fronting two real ``repro serve --register``
subprocesses, then proves the control-plane contract end to end:

1. the fleet registers and turns healthy;
2. the same submission routes to the same node twice, and the second time
   is answered from that node's result cache (digest affinity) — over
   reused keep-alive connections (``repro_client_connections_total``);
3. a SIGKILLed node's outstanding jobs are replayed onto the survivor from
   the gateway's replica journal, and every job still finishes — awaited
   with ``GET /v1/jobs/<id>?wait=`` through the gateway across the kill,
   the last answer carrying the result;
4. the gateway's ``/v1/metrics`` scrape passes the metrics-families gate
   (``check_metrics_families.py --no-default-families``).

Subprocesses matter: SIGKILL gives the victim no chance to flush or
deregister, which is exactly what the replication design must absorb.
Exit code 0 when every stage holds; 1 with a diagnostic otherwise.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.gateway import create_gateway, node_id_for_url  # noqa: E402
from repro.obs.metrics import get_metrics  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

import check_metrics_families  # noqa: E402

#: Large enough that a kill right after submission lands while work is
#: genuinely outstanding, small enough for CI.
JOB = {"type": "quantize_tensor", "params": {"rows": 192, "cols": 512}}

GATEWAY_FAMILIES = (
    "repro_gateway_requests_total",
    "repro_gateway_proxy_seconds",
    "repro_gateway_nodes",
    "repro_gateway_heartbeats_total",
    "repro_gateway_replicated_lines_total",
    "repro_gateway_failover_replays_total",
    # The gateway's node clients run in this process, so they count here.
    "repro_client_connections_total",
)


def spawn_node(gateway_url: str, journal_dir: Path) -> tuple[subprocess.Popen, str]:
    """Start ``repro serve --register`` as a subprocess; return (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--workers", "2",
            "--journal", str(journal_dir),
            "--register", gateway_url,
            "--heartbeat-interval", "0.2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: node exited early (rc={proc.poll()}):\n{banner}")
        banner += line
        if line.startswith("repro service listening on "):
            url = line.split()[-1].strip()
            threading.Thread(target=proc.stdout.read, daemon=True).start()
            return proc, url
    raise SystemExit(f"error: no listening banner within 30s:\n{banner}")


#: Longest server-side block of one waited ``GET /v1/jobs/<id>``.
WAIT_S = 2.0


def wait_done(client: ServiceClient, job_id: str, timeout: float = 120.0) -> dict:
    """Wait for the job on the gateway, one ``?wait=`` request at a time.

    Between the kill and the failover a wait can come back at once with the
    gateway's synthetic ``queued``; only such an early answer is followed
    by a pause, so the loop does not spin.
    """
    deadline = time.monotonic() + timeout
    record = {}
    while time.monotonic() < deadline:
        asked = time.monotonic()
        record = client.job(job_id, wait=WAIT_S)
        if record["state"] in ("done", "failed", "cancelled"):
            return record
        if time.monotonic() - asked < WAIT_S:
            time.sleep(0.1)
    raise SystemExit(f"error: job {job_id} not terminal within {timeout}s: {record}")


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="gateway-smoke-") as tmp:
        base = Path(tmp)
        gateway = create_gateway(
            port=0,
            state_dir=str(base / "state"),
            suspect_after=1.0,
            dead_after=2.5,
            sweep_interval=0.1,
            node_timeout=10.0,
        )
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        gateway_url = f"http://127.0.0.1:{gateway.port}"
        print(f"gateway listening on {gateway_url}")

        nodes: list[tuple[subprocess.Popen, str]] = []
        try:
            for i in range(2):
                nodes.append(spawn_node(gateway_url, base / f"journal-{i}"))
            client = ServiceClient(gateway_url, timeout=15.0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.health()["nodes"]["healthy"] == 2:
                    break
                time.sleep(0.1)
            else:
                raise SystemExit("error: fleet never reached 2 healthy nodes")
            print("fleet healthy: 2 nodes registered")

            # Stage 1: digest affinity — same work, same node, cached reply.
            first = client.request("POST", "/v1/jobs", JOB)
            wait_done(client, first["job_id"])
            second = client.request("POST", "/v1/jobs", JOB)
            if second["node"] != first["node"]:
                failures.append(
                    f"affinity: resubmission moved nodes "
                    f"({first['node']} -> {second['node']})"
                )
            if second.get("cache_hit") is not True:
                failures.append(f"affinity: second submission not a cache hit: {second}")
            print(f"affinity OK: digest {first['digest'][:12]} pinned to {first['node']}")
            # The gateway runs in this process, so its node clients count
            # into this process's registry: the affinity polls must have
            # reused connections.
            reused = get_metrics().get("repro_client_connections_total")
            if not reused.value(outcome="reused") > 0:
                failures.append("keep-alive: no client connection was reused")

            # Stage 2: SIGKILL the node that owns fresh work; every job must
            # still finish via replica-journal failover onto the survivor.
            records = [
                client.request(
                    "POST", "/v1/jobs",
                    {"type": JOB["type"], "params": {**JOB["params"], "seed": seed}},
                )
                for seed in range(1, 7)
            ]
            by_node = {node_id_for_url(url): proc for proc, url in nodes}
            victim_id = records[0]["node"]
            by_node[victim_id].send_signal(signal.SIGKILL)
            print(f"killed {victim_id} with {len(records)} jobs in flight")
            for record in records:
                final = wait_done(client, record["job_id"])
                if final["state"] != "done":
                    failures.append(f"failover: job {record['job_id']} -> {final['state']}")
                elif "result" not in final:
                    failures.append(f"long-poll: done job {record['job_id']} came without its result")
            counts = client.health()["nodes"]
            if counts["dead"] + counts["suspect"] < 1:
                failures.append(f"failover: victim still counted healthy: {counts}")
            print(f"failover OK: all {len(records)} jobs done, node counts {counts}")

            # Stage 3: the gateway's own metric families, via the CI gate.
            gate_argv = ["--url", gateway_url, "--no-default-families"]
            for family in GATEWAY_FAMILIES:
                gate_argv += ["--require", family]
            if check_metrics_families.main(gate_argv) != 0:
                failures.append("metrics: gateway scrape failed the families gate")
        finally:
            for proc, _url in nodes:
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
            gateway.close()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("gateway smoke: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
