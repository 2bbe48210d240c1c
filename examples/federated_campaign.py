"""Federated campaign dispatch: one campaign fanned out over two serve nodes.

By default the script self-hosts two in-process service nodes on ephemeral
ports, dispatches a small quantization campaign across them, runs the same
campaign locally, and proves the two reports are byte-identical — the
property that makes federation transparent.

Dispatching to a node list runs a gateway inside this process: each URL is
admitted as a static member (its ``/v1/health`` registry digest must match),
probed on ``/v1/readyz``, and every cell is routed by its content digest —
the same routing and failover as a ``repro gateway`` fronting the nodes.
Point it at real nodes (``python -m repro.cli serve`` on each machine) with
``--nodes``::

    PYTHONPATH=src python examples/federated_campaign.py
    PYTHONPATH=src python examples/federated_campaign.py \
        --nodes http://host-a:8000 http://host-b:8000
"""

from __future__ import annotations

import argparse
import tempfile
import threading
from pathlib import Path

SPEC = {
    "name": "federated-demo",
    "description": "Quantization backends swept across a small synthetic matrix.",
    "grids": [
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 32, "cols": 128},
            "sweep": {"backend": ["microscaling", "ptq", "olive"], "bits": [4, 8]},
        }
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", nargs="+", default=None,
                        help="running service endpoints (default: self-host two)")
    args = parser.parse_args()

    from repro.campaign import CampaignRunner, parse_spec
    from repro.campaign.dispatch import CampaignDispatcher

    servers = []
    if args.nodes:
        endpoints = args.nodes
    else:
        from repro.service import create_server

        for _ in range(2):
            server = create_server(port=0, max_workers=2)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        endpoints = [f"http://127.0.0.1:{server.port}" for server in servers]
        print(f"self-hosted nodes: {', '.join(endpoints)}")

    spec = parse_spec(SPEC)
    with tempfile.TemporaryDirectory(prefix="repro-federated-") as scratch:
        scratch = Path(scratch)

        dispatcher = CampaignDispatcher(spec, endpoints, scratch / "federated")
        stats = dispatcher.run()
        print(f"\ndispatched {stats['executed']} cell(s) "
              f"in {stats['elapsed_seconds']:.2f}s:")
        for node in stats["nodes"]:
            state = "ok" if node["alive"] else f"lost ({node['reason']})"
            print(f"  {node['url']}: {node['completed']} cell(s) — {state}")

        local = CampaignRunner(spec, scratch / "local", jobs=2)
        local.run()

        federated_report = (scratch / "federated" / "report.json").read_bytes()
        local_report = (scratch / "local" / "report.json").read_bytes()
        identical = federated_report == local_report
        print(f"\nfederated report == local report: {identical}")
        assert identical, "federation must be transparent!"

    for server in servers:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
