"""Walkthrough of the compression-as-a-service HTTP API (stdlib client).

Submits a compression job, polls it to completion, re-submits the identical
job to show the content-hash cache hit, and prints the service's cache and
pool statistics.  By default the script hosts an in-process server on an
ephemeral port so it is fully self-contained; point it at a running service
(``python -m repro.cli serve``) with ``--url``::

    PYTHONPATH=src python examples/service_client.py
    PYTHONPATH=src python examples/service_client.py --url http://localhost:8000
"""

from __future__ import annotations

import argparse
import json
import threading
import time
import urllib.request

JOB = {
    "type": "prune_tensor",
    "params": {"rows": 256, "cols": 2048, "num_columns": 4, "beta": 0.1},
}


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


def post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def poll(base: str, job_id: str, interval: float = 0.05) -> dict:
    while True:
        status = get(base, f"/v1/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return get(base, f"/v1/jobs/{job_id}/result")
        time.sleep(interval)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=None, help="running service (default: self-host)")
    args = parser.parse_args()

    server = None
    if args.url:
        base = args.url.rstrip("/")
    else:
        from repro.service import create_server

        server = create_server(port=0, max_workers=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://127.0.0.1:{server.port}"
        print(f"self-hosted service on {base}")

    health = get(base, "/v1/health")
    print(f"service up, {health['scenarios']} scenarios, "
          f"{health['pool']['workers']} workers")

    # Cold request: submit, then poll like an asynchronous client would.
    start = time.perf_counter()
    submitted = post(base, "/v1/jobs", JOB)
    finished = poll(base, submitted["job_id"])
    cold = time.perf_counter() - start
    result = finished["result"]
    print(f"\ncold job {submitted['job_id']}: {finished['state']} in {cold:.3f}s")
    print(f"  effective bits:    {result['effective_bits']:.3f}")
    print(f"  compression ratio: {result['compression_ratio']:.3f}x")
    print(f"  content digest:    {result['content_digest'][:16]}…")

    # Identical request: served from the content-hash cache.
    start = time.perf_counter()
    cached = post(base, "/v1/jobs?wait=60", JOB)
    warm = time.perf_counter() - start
    print(f"\ncached job {cached['job_id']}: {cached['state']} in {warm:.3f}s "
          f"(cache_hit={cached['cache_hit']})")
    if warm > 0:
        print(f"  speedup: {cold / warm:.0f}x")
    assert cached["result"] == result, "cache returned a different result!"

    print("\ncache stats:", json.dumps(get(base, "/v1/cache/stats"), indent=2))

    if server is not None:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
