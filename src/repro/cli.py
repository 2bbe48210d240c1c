"""Command-line interface: ``python -m repro.cli <command>``.

Lets a user regenerate any paper table/figure, run the ablations, print the
benchmark-suite summary, or serve the whole harness over HTTP without writing
Python.  Every experiment command prints the same text tables the experiment
functions return, or — with ``--json`` — a machine-readable payload (the same
one the service layer caches and ships).

Examples::

    python -m repro.cli list
    python -m repro.cli figure3
    python -m repro.cli figure12 --models ResNet-50 ViT-Small --jobs 4
    python -m repro.cli table5 --json
    python -m repro.cli ablations
    python -m repro.cli all --fast --jobs 4
    python -m repro.cli serve --port 8000 --workers 4 --processes
    python -m repro.cli campaign run examples/campaign_pruning_grid.json --jobs 2
    python -m repro.cli campaign resume runs/pruning-grid-0123456789ab
    python -m repro.cli campaign report runs/pruning-grid-0123456789ab
    python -m repro.cli warehouse ingest runs/pruning-grid-0123456789ab --db wh.sqlite
    python -m repro.cli warehouse query --db wh.sqlite --where "effective_bits<4" --sort mse
    python -m repro.cli warehouse pareto --db wh.sqlite -x effective_bits -y mse
    python -m repro.cli codec list
    python -m repro.cli codec run microscaling --param bits=4 --rows 64
    python -m repro.cli codec run pipeline --stages \
        '[{"codec": "prune"}, {"codec": "ptq", "params": {"bits": 6}}]'
    python -m repro.cli obs metrics --url http://localhost:8000
    python -m repro.cli obs trace job-000001 --url http://localhost:8000
    python -m repro.cli obs summary runs/pruning-grid-0123456789ab
    python -m repro.cli chaos points
    python -m repro.cli chaos plan '{"rules": [{"point": "journal.append", "probability": 0.2}]}'
    python -m repro.cli chaos proxy --upstream-port 8000 --port 8001 --reset-p 0.05
    python -m repro.cli journal compact runs/journal-dir

``repro serve`` shuts down gracefully on SIGTERM/SIGINT: it stops accepting
requests, drains running jobs, leaves queued jobs journaled for the next
start, and exits 0.  A second signal aborts immediately.
"""

from __future__ import annotations

import argparse
import json
import sys

from .eval import BENCHMARK_MODEL_NAMES, EXPERIMENTS, json_payload, run_all, run_experiment
from .eval.ablations import run_all_ablations
from .obs import timed

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of the BBS (MICRO 2024) paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available commands")

    for name, experiment in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=experiment.summary)
        if "models" in experiment.params:
            sub.add_argument("--models", nargs="+", choices=BENCHMARK_MODEL_NAMES, default=None)
        if "seed" in experiment.params:
            sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--json", action="store_true", help="emit JSON instead of tables")
        if "suite" in experiment.parameters:
            sub.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="process-pool width for accelerator sweeps (results unchanged)",
            )

    ablation_parser = subparsers.add_parser("ablations", help="run the design-choice ablations")
    ablation_parser.add_argument("--seed", type=int, default=0)
    ablation_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--fast", action="store_true", help="use reduced model subsets")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    all_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="run experiments on a process pool of this width (results unchanged)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="serve the experiment harness over HTTP (JSON API)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8000)
    serve_parser.add_argument("--workers", type=int, default=2, help="worker threads")
    serve_parser.add_argument(
        "--processes",
        action="store_true",
        help="run jobs on worker processes instead of threads "
        "(sidesteps the GIL for compression-heavy jobs)",
    )
    serve_parser.add_argument("--cache-size", type=int, default=256, help="in-memory LRU entries")
    serve_parser.add_argument(
        "--cache-dir", default=None, help="persist cached results to this directory"
    )
    serve_parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="journal every job to DIR/journal.jsonl and replay it on restart "
        "(also persists the result cache under DIR/cache unless --cache-dir "
        "says otherwise)",
    )
    serve_parser.add_argument(
        "--warehouse",
        default=None,
        metavar="PATH",
        help="serve GET /v1/results from this warehouse database "
        "(default: DIR/warehouse.sqlite when --journal DIR is given)",
    )
    serve_parser.add_argument(
        "--max-queued",
        type=int,
        default=None,
        metavar="N",
        help="reject new jobs with 429 once N are queued/running (backpressure)",
    )
    serve_parser.add_argument("--verbose", action="store_true", help="log every request")
    serve_parser.add_argument(
        "--register",
        default=None,
        metavar="URL",
        help="register with this `repro gateway` and heartbeat; the gateway "
        "then routes work here by content digest and replays this node's "
        "unfinished jobs elsewhere if it dies",
    )
    serve_parser.add_argument(
        "--node-url",
        default=None,
        metavar="URL",
        help="the URL the gateway should reach this node at "
        "(default: http://<host>:<port> as served)",
    )
    serve_parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="gateway heartbeat/journal-flush period (default: %(default)s)",
    )

    gateway_parser = subparsers.add_parser(
        "gateway",
        help="front-door gateway: digest routing, node registry, journal "
        "replication + failover, tenant quotas",
    )
    gateway_parser.add_argument("--host", default="127.0.0.1")
    gateway_parser.add_argument("--port", type=int, default=8100)
    gateway_parser.add_argument(
        "--state",
        default=None,
        metavar="DIR",
        help="replica-journal directory (default: an ephemeral temp dir — "
        "failover state does not survive a gateway restart without this)",
    )
    gateway_parser.add_argument(
        "--keys",
        default=None,
        metavar="FILE",
        help="tenant keys file enabling Bearer auth + per-tenant quotas "
        "(see docs/gateway.md for the format)",
    )
    gateway_parser.add_argument(
        "--suspect-after",
        type=float,
        default=3.0,
        metavar="SECONDS",
        help="missed-heartbeat window before a node stops receiving new work",
    )
    gateway_parser.add_argument(
        "--dead-after",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="silence before a node is declared dead and its unfinished "
        "jobs are replayed onto survivors",
    )
    gateway_parser.add_argument(
        "--node-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request timeout when proxying to a node",
    )
    gateway_parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="declarative experiment campaigns (run/resume/report)"
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    def _add_ingest_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ingest",
            default=None,
            metavar="DB",
            help="when the report is written, also ingest the run into this "
            "warehouse database (idempotent by digest)",
        )

    def _add_execution_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--jobs", type=int, default=1, help="worker-pool width")
        sub.add_argument(
            "--processes",
            action="store_true",
            help="run cells on worker processes instead of threads",
        )
        sub.add_argument(
            "--shard",
            default=None,
            metavar="I/N",
            help="run only this shard of every grid (e.g. 0/4); all shards "
            "may share one --run-dir",
        )
        sub.add_argument(
            "--max-jobs",
            type=int,
            default=None,
            help="stop after completing this many new cells (resume later)",
        )

    campaign_run = campaign_sub.add_parser("run", help="expand and run a campaign spec")
    campaign_run.add_argument("spec", help="path to a campaign spec (JSON)")
    campaign_run.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint/report directory (default: runs/<name>-<digest12>)",
    )
    _add_execution_flags(campaign_run)
    _add_ingest_flag(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="resume an interrupted campaign from its run directory"
    )
    campaign_resume.add_argument("run_dir", help="run directory of the interrupted campaign")
    _add_execution_flags(campaign_resume)
    _add_ingest_flag(campaign_resume)

    campaign_report = campaign_sub.add_parser(
        "report", help="(re)build report.json/report.csv from the checkpoints"
    )
    campaign_report.add_argument("run_dir", help="run directory of a completed campaign")
    campaign_report.add_argument(
        "--json", action="store_true", help="print the aggregate report to stdout"
    )
    _add_ingest_flag(campaign_report)

    campaign_dispatch = campaign_sub.add_parser(
        "dispatch",
        help="fan a campaign's cells out across remote `repro serve` nodes "
        "(same checkpoints and byte-identical report as a local run)",
    )
    campaign_dispatch.add_argument("spec", help="path to a campaign spec (JSON)")
    campaign_dispatch.add_argument(
        "--nodes",
        nargs="+",
        default=None,
        metavar="URL",
        help="service endpoints, e.g. http://host-a:8000 http://host-b:8000; "
        "admitted as static members of an in-process gateway that routes "
        "each cell by content digest and fails cells over from lost nodes",
    )
    campaign_dispatch.add_argument(
        "--gateway",
        default=None,
        metavar="URL",
        help="dispatch through a running `repro gateway` front door instead "
        "of --nodes: the gateway routes each cell by content digest and "
        "handles node failover transparently",
    )
    campaign_dispatch.add_argument(
        "--api-key",
        default=None,
        metavar="KEY",
        help="tenant API key sent as `Authorization: Bearer` "
        "(gateways with a --keys file require one)",
    )
    campaign_dispatch.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint/report directory (default: runs/<name>-<digest12>); "
        "re-dispatching into the same directory resumes",
    )
    campaign_dispatch.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="cells held on each node at once: the window is this times the "
        "admitted --nodes, or this for a --gateway; a 429 shrinks it",
    )
    campaign_dispatch.add_argument(
        "--poll-interval",
        type=float,
        default=0.1,
        help="seconds between remote status sweeps",
    )
    _add_ingest_flag(campaign_dispatch)

    warehouse_parser = subparsers.add_parser(
        "warehouse", help="results warehouse: ingest runs, query, Pareto frontiers"
    )
    warehouse_sub = warehouse_parser.add_subparsers(dest="warehouse_command", required=True)

    warehouse_ingest = warehouse_sub.add_parser(
        "ingest",
        help="ingest campaign run dirs / checkpoint files / service node dirs "
        "into a warehouse database (idempotent by digest)",
    )
    warehouse_ingest.add_argument("paths", nargs="+", help="sources to ingest")
    warehouse_ingest.add_argument(
        "--db", default="warehouse.sqlite", metavar="PATH",
        help="warehouse database (created if missing; default: %(default)s)",
    )
    warehouse_ingest.add_argument("--json", action="store_true", help="emit the stats as JSON")

    def _add_query_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", default="warehouse.sqlite", metavar="PATH",
            help="warehouse database to query (default: %(default)s)",
        )
        sub.add_argument(
            "--where",
            action="append",
            default=[],
            metavar="EXPR",
            help="filter 'NAME OP VALUE' (repeatable, ANDed); NAME is an "
            "identity column or metric leaf, OP one of = != < <= > >=",
        )
        sub.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: %(default)s)",
        )
        sub.add_argument(
            "--columns",
            default=None,
            metavar="A,B,C",
            help="columns to emit (default: identity + referenced metrics "
            "for tables, every column otherwise)",
        )

    warehouse_query = warehouse_sub.add_parser(
        "query", help="filter/sort warehouse cells and print them"
    )
    _add_query_flags(warehouse_query)
    warehouse_query.add_argument("--sort", default=None, metavar="COL", help="sort column")
    warehouse_query.add_argument("--desc", action="store_true", help="sort descending")
    warehouse_query.add_argument("--limit", type=int, default=None, metavar="N")
    warehouse_query.add_argument("--offset", type=int, default=0, metavar="N")

    warehouse_pareto = warehouse_sub.add_parser(
        "pareto", help="Pareto frontier of the matched cells over two metrics"
    )
    _add_query_flags(warehouse_pareto)
    warehouse_pareto.add_argument("-x", required=True, metavar="COL", help="x-axis metric")
    warehouse_pareto.add_argument("-y", required=True, metavar="COL", help="y-axis metric")
    warehouse_pareto.add_argument(
        "--max-x", action="store_true", help="maximize x instead of minimizing"
    )
    warehouse_pareto.add_argument(
        "--max-y", action="store_true", help="maximize y instead of minimizing"
    )

    codec_parser = subparsers.add_parser(
        "codec", help="run or list the composable compression codecs"
    )
    codec_sub = codec_parser.add_subparsers(dest="codec_command", required=True)

    codec_list = codec_sub.add_parser("list", help="list registered codecs + schemas")
    codec_list.add_argument("--json", action="store_true", help="emit the full schemas")

    codec_run = codec_sub.add_parser(
        "run", help="compress one synthetic Gaussian matrix with a codec"
    )
    codec_run.add_argument("codec", help="codec name (see `repro codec list`)")
    codec_run.add_argument("--rows", type=int, default=128)
    codec_run.add_argument("--cols", type=int, default=1024)
    codec_run.add_argument("--seed", type=int, default=0)
    codec_run.add_argument("--scale", type=float, default=1.0)
    codec_run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="codec parameter (repeatable; VALUE parsed as JSON, else string)",
    )
    codec_run.add_argument(
        "--stages",
        default=None,
        metavar="JSON",
        help="pipeline stage list (JSON text or a path to a JSON file); "
        "implies the pipeline codec",
    )
    codec_run.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    obs_parser = subparsers.add_parser(
        "obs", help="observability: scrape metrics, inspect traces, profile runs"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    obs_metrics = obs_sub.add_parser(
        "metrics", help="print metrics (Prometheus text, or --json)"
    )
    obs_metrics.add_argument(
        "--url",
        default=None,
        metavar="URL",
        help="scrape GET /v1/metrics from a `repro serve` node "
        "(default: this process's registry)",
    )
    obs_metrics.add_argument("--json", action="store_true", help="emit JSON instead of text")

    obs_trace = obs_sub.add_parser(
        "trace", help="print the span tree of a service job"
    )
    obs_trace.add_argument("job_id", help="job id, e.g. job-000001")
    obs_trace.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        metavar="URL",
        help="`repro serve` node holding the job (default: %(default)s)",
    )
    obs_trace.add_argument("--json", action="store_true", help="emit the raw span tree")

    obs_summary = obs_sub.add_parser(
        "summary", help="per-grid latency table for a campaign run directory"
    )
    obs_summary.add_argument("run_dir", help="campaign run directory (with checkpoints)")
    obs_summary.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    chaos_parser = subparsers.add_parser(
        "chaos", help="fault injection: list points, validate plans, run a proxy"
    )
    chaos_sub = chaos_parser.add_subparsers(dest="chaos_command", required=True)

    chaos_points = chaos_sub.add_parser(
        "points", help="list the named injection points a plan can target"
    )
    chaos_points.add_argument("--json", action="store_true", help="emit JSON")

    chaos_plan = chaos_sub.add_parser(
        "plan",
        help="validate a chaos plan spec (inline JSON, @file, or a file path) "
        "— the same format the REPRO_CHAOS environment variable takes",
    )
    chaos_plan.add_argument("spec", help="plan spec: inline JSON, @path, or path")
    chaos_plan.add_argument("--json", action="store_true", help="emit the parsed rules as JSON")

    chaos_proxy = chaos_sub.add_parser(
        "proxy",
        help="run a fault-injecting TCP proxy in front of a `repro serve` node",
    )
    chaos_proxy.add_argument("--upstream-port", type=int, required=True)
    chaos_proxy.add_argument("--upstream-host", default="127.0.0.1")
    chaos_proxy.add_argument("--host", default="127.0.0.1", help="listen host")
    chaos_proxy.add_argument("--port", type=int, default=0, help="listen port (0 = ephemeral)")
    chaos_proxy.add_argument("--reset-p", type=float, default=0.0, help="P(connection reset)")
    chaos_proxy.add_argument("--latency-p", type=float, default=0.0, help="P(added latency)")
    chaos_proxy.add_argument("--latency-s", type=float, default=0.05, help="latency to add (s)")
    chaos_proxy.add_argument("--error-p", type=float, default=0.0, help="P(forced error status)")
    chaos_proxy.add_argument(
        "--error-status", type=int, default=503, help="status for forced errors (429/5xx)"
    )
    chaos_proxy.add_argument("--truncate-p", type=float, default=0.0, help="P(truncated response)")
    chaos_proxy.add_argument("--seed", type=int, default=0, help="fault-roll RNG seed")

    journal_parser = subparsers.add_parser(
        "journal", help="job-journal maintenance (compaction)"
    )
    journal_sub = journal_parser.add_subparsers(dest="journal_command", required=True)
    journal_compact = journal_sub.add_parser(
        "compact",
        help="snapshot+truncate DIR/journal.jsonl: one submit (+ finish) line "
        "per job, oldest finished jobs beyond --keep-finished dropped",
    )
    journal_compact.add_argument("dir", help="journal directory (as given to serve --journal)")
    journal_compact.add_argument(
        "--keep-finished",
        type=int,
        default=None,
        metavar="N",
        help="finished jobs to keep (default: the job store's history bound)",
    )
    journal_compact.add_argument("--json", action="store_true", help="emit the stats as JSON")

    analyze_parser = subparsers.add_parser(
        "analyze",
        help="run the static invariant checkers (lock order, digest purity, ...)",
        description="Run the repo's AST-based invariant checkers "
        "(repro.analysis) over source files or directories. Exit codes: "
        "0 = clean, 1 = unsuppressed findings, 2 = usage error "
        "(unknown checker id or missing path).",
    )
    analyze_parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: %(default)s)",
    )
    analyze_parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated checker ids to run (default: every registered checker)",
    )
    analyze_parser.add_argument(
        "--ignore", metavar="IDS", help="comma-separated checker ids to skip"
    )
    analyze_parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: %(default)s)",
    )
    analyze_parser.add_argument(
        "--list", action="store_true", help="list the registered checkers and exit"
    )
    analyze_parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by `# repro: ignore[...]` comments",
    )
    return parser


def _run_single(name: str, args: argparse.Namespace) -> int:
    # ``name`` ranges over EXPERIMENTS — a closed set, so the operation
    # label stays bounded despite the interpolation.
    with timed(f"experiment.{name}") as timer:  # repro: ignore[metric-labels]
        result = run_experiment(
            name,
            models=getattr(args, "models", None),
            seed=getattr(args, "seed", 0),
            jobs=getattr(args, "jobs", 1),
        )
    if args.json:
        print(json.dumps(json_payload(result), indent=2))
    else:
        print(result["table"])
        print(f"[{name} regenerated in {timer.seconds:.1f}s]")
    return 0


def _serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .chaos.plan import get_plan
    from .service.server import create_server

    server = create_server(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        use_processes=args.processes,
        verbose=args.verbose,
        max_queued=args.max_queued,
        journal_dir=args.journal,
        warehouse_path=args.warehouse,
    )
    # Graceful shutdown: the first SIGTERM/SIGINT unblocks serve_forever and
    # lets the drain below run; a second signal means "now" and aborts.
    # server.shutdown() must not be called on the thread inside
    # serve_forever() (it joins that loop — deadlock), and a signal handler
    # runs precisely there, so the handler hands it to a helper thread.
    # Installed before the "listening" banner: anything supervising this
    # process treats that line as "ready to signal".
    signals_seen = {"count": 0}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            os._exit(1)
        # Readiness goes false *before* the listener stops: a load balancer
        # (or the gateway) polling GET /v1/readyz sees "draining" while
        # in-flight work finishes.
        server.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    graceful = True
    for signame in ("SIGTERM", "SIGINT"):
        try:
            signal.signal(getattr(signal, signame), _on_signal)
        except (ValueError, OSError, AttributeError):
            graceful = False  # non-main thread or exotic platform

    host, port = server.server_address[0], server.port
    worker_kind = "processes" if args.processes else "threads"
    print(f"repro service listening on http://{host}:{port}")
    print(f"  scenarios: {len(server.registry)}  workers: {args.workers} {worker_kind}")
    if args.journal:
        replay = server.replay_stats or {}
        print(
            f"  journal: {server.journal.path} "
            f"(replayed {replay.get('replayed', 0)} job(s), "
            f"{replay.get('completed', 0)} done, {replay.get('requeued', 0)} requeued, "
            f"{replay.get('quarantined', 0)} corrupt line(s) quarantined)"
        )
    if args.max_queued is not None:
        print(f"  backpressure: 429 beyond {args.max_queued} unfinished job(s)")
    if server.warehouse_path is not None:
        print(f"  warehouse: GET /v1/results reads {server.warehouse_path}")
    chaos_plan = get_plan()
    if chaos_plan is not None:
        print(f"  chaos: REPRO_CHAOS active with {len(chaos_plan.rules)} rule(s)")
    print(
        "  endpoints: /v1/health /v1/scenarios /v1/codecs /v1/compress /v1/jobs "
        "/v1/results /v1/cache/stats /v1/metrics  "
        "(Ctrl-C / SIGTERM for graceful shutdown)"
    )
    agent = None
    if args.register:
        from .gateway import GatewayAgent
        from .service.client import ServiceError

        node_url = args.node_url or f"http://{host}:{port}"
        agent = GatewayAgent(
            args.register,
            node_url,
            server,
            heartbeat_interval=args.heartbeat_interval,
        )
        try:
            agent.start()
        except ServiceError as error:
            # A refused registration (registry skew, gateway down) must be
            # loud: an unregistered node receives no gateway traffic.
            print(f"error: gateway registration failed: {error}", file=sys.stderr)
            server.close(wait=False)
            return 1
        print(
            f"  gateway: registered as {agent.node_id} at {args.register} "
            f"(heartbeat every {args.heartbeat_interval:g}s)"
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        graceful = False
    finally:
        if agent is not None:
            agent.stop()
        if graceful:
            print("shutting down: draining running jobs ...")
            drain = server.graceful_close()
            requeue_note = (
                " (journaled; they re-run on next start)"
                if drain["journaled"] and drain["requeued"]
                else ""
            )
            print(
                f"shutdown complete: {drain['drained']} job(s) drained, "
                f"{drain['requeued']} requeued{requeue_note}"
            )
        else:
            server.close(wait=False)
    return 0


def _gateway(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from .gateway import create_gateway

    try:
        server = create_gateway(
            host=args.host,
            port=args.port,
            state_dir=args.state,
            keys_file=args.keys,
            suspect_after=args.suspect_after,
            dead_after=args.dead_after,
            node_timeout=args.node_timeout,
            verbose=args.verbose,
        )
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    # Same two-stage signal contract as `repro serve`: first SIGTERM/SIGINT
    # drains (readyz goes 503, the listener stops), a second one aborts.
    signals_seen = {"count": 0}

    def _on_signal(signum, frame):  # noqa: ARG001 - signal API
        signals_seen["count"] += 1
        if signals_seen["count"] > 1:
            os._exit(1)
        server.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signame in ("SIGTERM", "SIGINT"):
        try:
            signal.signal(getattr(signal, signame), _on_signal)
        except (ValueError, OSError, AttributeError):
            pass  # non-main thread or exotic platform

    host, port = server.server_address[0], server.port
    print(f"repro gateway listening on http://{host}:{port}")
    print(
        f"  registry digest: {server.registry_digest[:12]}  "
        f"suspect/dead after: {args.suspect_after:g}s/{args.dead_after:g}s"
    )
    print(f"  replica state: {server.replicas.directory}")
    if server.quotas is not None:
        names = ", ".join(server.quotas.tenant_names)
        print(f"  tenants: {names} (Bearer auth required)")
    print(
        "  nodes register with: repro serve --register "
        f"http://{host}:{port}  (Ctrl-C / SIGTERM for graceful shutdown)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        counts = server.nodes.counts()
        server.close()
        print(
            f"gateway shut down ({counts.get('healthy', 0)} healthy node(s) "
            "left registered; they keep serving direct traffic)"
        )
    return 0


def _chaos(args: argparse.Namespace) -> int:
    from .chaos import ChaosProxy, ChaosSpecError, FaultPlan, INJECTION_POINTS

    if args.chaos_command == "points":
        if args.json:
            print(json.dumps(INJECTION_POINTS, indent=2, sort_keys=True))
            return 0
        print("chaos injection points (target with REPRO_CHAOS or `repro chaos plan`):")
        width = max(len(name) for name in INJECTION_POINTS)
        for name in sorted(INJECTION_POINTS):
            print(f"  {name:<{width}}  {INJECTION_POINTS[name]}")
        return 0

    if args.chaos_command == "plan":
        try:
            plan = FaultPlan.from_text(args.spec)
        except ChaosSpecError as error:
            print(f"error: invalid chaos plan: {error}", file=sys.stderr)
            return 1
        rules = [rule.to_dict() for rule in plan.rules]
        if args.json:
            print(json.dumps({"seed": plan.seed, "rules": rules}, indent=2, sort_keys=True))
        else:
            print(f"valid chaos plan: {len(rules)} rule(s), seed {plan.seed}")
            for rule in rules:
                print(f"  {json.dumps(rule, sort_keys=True)}")
        return 0

    # proxy
    try:
        proxy = ChaosProxy(
            upstream_port=args.upstream_port,
            upstream_host=args.upstream_host,
            listen_host=args.host,
            listen_port=args.port,
            reset_p=args.reset_p,
            latency_s=args.latency_s,
            latency_p=args.latency_p,
            error_p=args.error_p,
            error_status=args.error_status,
            truncate_p=args.truncate_p,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    proxy.start()
    print(
        f"chaos proxy on {proxy.url} -> "
        f"http://{args.upstream_host}:{args.upstream_port}  (Ctrl-C to stop)"
    )
    print(
        f"  reset_p={args.reset_p} latency={args.latency_p}@{args.latency_s}s "
        f"error_p={args.error_p}(HTTP {args.error_status}) "
        f"truncate_p={args.truncate_p} seed={args.seed}"
    )
    try:
        import time as _time

        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        print(f"proxy fault counts: {json.dumps(proxy.stats()['counts'], sort_keys=True)}")
    return 0


def _journal(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service.journal import DEFAULT_KEEP_FINISHED, JobJournal

    directory = Path(args.dir)
    if not (directory / "journal.jsonl").exists():
        print(f"error: no journal at {directory / 'journal.jsonl'}", file=sys.stderr)
        return 1
    keep = args.keep_finished if args.keep_finished is not None else DEFAULT_KEEP_FINISHED
    journal = JobJournal(directory)
    try:
        stats = journal.compact(keep_finished=keep)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        journal.close()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(
        f"compacted {journal.path}: {stats['bytes_before']} -> "
        f"{stats['bytes_after']} bytes"
    )
    print(
        f"  {stats['kept_jobs']} job(s) kept, {stats['dropped_finished']} old "
        f"finished job(s) dropped, {stats['quarantined']} corrupt line(s) quarantined"
    )
    return 0


def _parse_shard(value: str | None) -> tuple[int, int]:
    if value is None:
        return 0, 1
    try:
        index_text, count_text = value.split("/", 1)
        return int(index_text), int(count_text)
    except ValueError:
        raise SystemExit(
            f"--shard must look like I/N (e.g. 0/4), got {value!r}"
        ) from None


def _campaign_dispatch(args: argparse.Namespace) -> int:
    from .campaign import (
        CampaignDispatcher,
        CampaignRunError,
        DispatchError,
        load_spec,
    )
    from .service.client import ServiceError

    if bool(args.nodes) == bool(args.gateway):
        print(
            "error: pass either --nodes URL... or --gateway URL (not both)",
            file=sys.stderr,
        )
        return 1
    client_options = {"api_key": args.api_key} if args.api_key else None
    try:
        spec = load_spec(args.spec)
        run_dir = args.run_dir or f"runs/{spec.name}-{spec.digest()[:12]}"
        dispatcher = CampaignDispatcher(
            spec,
            endpoints=args.nodes or [],
            run_dir=run_dir,
            max_inflight=args.max_inflight,
            poll_interval=args.poll_interval,
            ingest_db=args.ingest,
            gateway=args.gateway,
            client_options=client_options,
        )
        stats = dispatcher.run()
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except DispatchError as error:
        print(f"error: {error}", file=sys.stderr)
        print(
            "completed cells are checkpointed; re-dispatch (or run locally) "
            "to finish the remainder",
            file=sys.stderr,
        )
        return 1
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except CampaignRunError as error:
        print(f"error: {error}", file=sys.stderr)
        for job, trace in error.failures[:3]:
            last_line = trace.strip().splitlines()[-1] if trace.strip() else "unknown"
            print(f"  {job.cell}: {last_line}", file=sys.stderr)
        return 1

    fleet = (
        "via gateway"
        if stats.get("mode") == "gateway"
        else f"over {len(stats['nodes'])} node(s)"
    )
    print(
        f"campaign {stats['campaign']!r} dispatched {fleet}: "
        f"{stats['executed']} run, {stats['skipped_checkpointed']} checkpointed, "
        f"{stats['total_cells']} total cells in {stats['elapsed_seconds']:.1f}s"
    )
    for node in stats["nodes"]:
        status = "ok" if node["alive"] else f"LOST ({node['reason']})"
        print(f"  {node['url']}: {node['completed']} cell(s) completed — {status}")
    client_stats = stats.get("client") or {}
    retries = client_stats.get("retries", 0)
    cooldowns = client_stats.get("cooldowns_429", 0)
    if retries or cooldowns:
        by_reason = client_stats.get("retries_by_reason") or {}
        detail = ", ".join(f"{reason}={count}" for reason, count in by_reason.items())
        print(
            f"  client: {retries} retrie(s)"
            + (f" ({detail})" if detail else "")
            + f", {cooldowns} backpressure cooldown(s)"
        )
    if stats.get("trace_id"):
        print(f"  trace: {stats['trace_id']}")
    print(f"run dir: {stats['run_dir']}")
    if stats["report_written"]:
        print(f"report:  {dispatcher.run_dir / 'report.json'} (+ report.csv)")
    else:
        print("incomplete; re-dispatch into the same --run-dir to resume")
    return 0


def _campaign(args: argparse.Namespace) -> int:
    from .campaign import CampaignRunError, CampaignRunner, load_spec

    try:
        if args.campaign_command == "dispatch":
            return _campaign_dispatch(args)
        if args.campaign_command == "report":
            runner = CampaignRunner.resume(args.run_dir, ingest_db=args.ingest)
            try:
                report = runner.write_report()
            except KeyError as error:
                print(f"campaign incomplete: {error}", file=sys.stderr)
                print("run `repro campaign resume` to finish it first", file=sys.stderr)
                return 1
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(f"report written: {runner.run_dir / 'report.json'}")
                print(f"csv written:    {runner.run_dir / 'report.csv'}")
                print(f"cells: {report['total_cells']}  spec: {report['spec_digest'][:12]}")
            return 0

        shard_index, shard_count = _parse_shard(args.shard)
        options = dict(
            jobs=args.jobs,
            use_processes=args.processes,
            shard_index=shard_index,
            shard_count=shard_count,
            max_jobs=args.max_jobs,
            ingest_db=args.ingest,
        )
        if args.campaign_command == "run":
            spec = load_spec(args.spec)
            run_dir = args.run_dir or f"runs/{spec.name}-{spec.digest()[:12]}"
            runner = CampaignRunner(spec, run_dir, **options)
        else:  # resume
            runner = CampaignRunner.resume(args.run_dir, **options)
        stats = runner.run()
    except (FileNotFoundError, ValueError) as error:
        # ValueError covers CampaignSpecError (its subclass) and malformed
        # runner options like --jobs 0.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except CampaignRunError as error:
        print(f"error: {error}", file=sys.stderr)
        for job, trace in error.failures[:3]:
            last_line = trace.strip().splitlines()[-1] if trace.strip() else "unknown"
            print(f"  {job.cell}: {last_line}", file=sys.stderr)
        return 1

    shard = stats["shard"]
    scope = f" (shard {shard['index']}/{shard['count']})" if shard["count"] > 1 else ""
    print(
        f"campaign {stats['campaign']!r}{scope}: "
        f"{stats['executed']} run, {stats['skipped_checkpointed']} checkpointed, "
        f"{stats['total_cells']} total cells in {stats['elapsed_seconds']:.1f}s"
    )
    print(f"run dir: {runner.run_dir}")
    if stats["interrupted"]:
        print(f"stopped at --max-jobs; resume with: repro campaign resume {runner.run_dir}")
    elif stats["report_written"]:
        print(f"report:  {runner.run_dir / 'report.json'} (+ report.csv)")
    else:
        print("shard complete; report appears once every shard has run")
    return 0


def _warehouse(args: argparse.Namespace) -> int:
    from . import warehouse
    from .eval.reporting import format_table, rows_to_csv

    if args.warehouse_command == "ingest":
        conn = warehouse.connect(args.db)
        try:
            stats = warehouse.ingest_paths(conn, args.paths)
        except warehouse.IngestError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            conn.close()
        if args.json:
            print(json.dumps(stats.to_jsonable(), indent=2, sort_keys=True))
            return 0
        print(
            f"ingested {stats.sources} source(s) into {args.db}: "
            f"{stats.inserted} inserted, {stats.duplicates} duplicate(s), "
            f"{stats.invalid} invalid file(s) skipped"
        )
        for path in stats.invalid_files[:5]:
            print(f"  skipped: {path}")
        return 0

    # query / pareto share database access, filters, and output formatting.
    try:
        conn = warehouse.connect_readonly(args.db)
    except (FileNotFoundError, warehouse.SchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    try:
        filters = warehouse.parse_filters(args.where)
        columns = (
            [c.strip() for c in args.columns.split(",") if c.strip()]
            if args.columns is not None
            else None
        )
        if args.warehouse_command == "query":
            rows, total = warehouse.query_cells(
                conn,
                filters,
                sort=args.sort,
                descending=args.desc,
                offset=args.offset,
                limit=args.limit,
                columns=columns,
            )
            display_columns = columns or warehouse.default_columns(filters, args.sort)
        else:  # pareto
            matched, total = warehouse.query_cells(conn, filters)
            rows = warehouse.pareto_front(
                matched, args.x, args.y, maximize_x=args.max_x, maximize_y=args.max_y
            )
            if columns is not None:
                rows = [{c: row.get(c) for c in columns} for row in rows]
            display_columns = columns or warehouse.default_columns(filters, None) + [
                c for c in (args.x, args.y)
                if c not in warehouse.default_columns(filters, None)
            ]
    except warehouse.QueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        conn.close()

    if args.format == "json":
        print(json.dumps({"results": rows, "total": total}, indent=2, sort_keys=True))
    elif args.format == "csv":
        print(rows_to_csv(rows, columns=columns), end="")
    else:
        shown = [{c: row.get(c) for c in display_columns} for row in rows]
        title = f"{len(rows)} of {total} matched cell(s) in {args.db}"
        print(format_table(shown, columns=display_columns, title=title, precision=6))
    return 0


def _parse_cli_params(pairs: list[str]) -> dict:
    """``--param key=value`` pairs -> dict (values JSON-decoded when possible)."""
    params = {}
    for pair in pairs:
        key, separator, text = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"--param must look like KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(text)
        except json.JSONDecodeError:
            params[key] = text
    return params


def _codec(args: argparse.Namespace) -> int:
    from . import codecs
    from .eval.reporting import format_table

    if args.codec_command == "list":
        schemas = codecs.describe_codecs()
        if args.json:
            print(json.dumps(schemas, indent=2, sort_keys=True))
            return 0
        rows = [
            {
                "codec": schema["name"],
                "version": schema["version"],
                "lossless": schema["lossless"],
                "params": " ".join(sorted(schema["params"])) or "-",
                "summary": schema["summary"],
            }
            for schema in schemas
        ]
        print(format_table(rows, title="registered codecs"))
        return 0

    # `codec run`: executed through the service registry's codec_compress
    # scenario so the CLI, the campaign engine, and POST /v1/compress produce
    # byte-identical payloads for identical inputs.
    from .service.registry import build_default_registry

    stages = None
    if args.stages is not None:
        from pathlib import Path

        if args.codec != "pipeline":
            raise SystemExit(
                f"--stages runs the pipeline codec; it cannot be combined with "
                f"codec {args.codec!r} (use `repro codec run pipeline --stages ...` "
                "or fold the codec into the stage list)"
            )
        text = args.stages
        if Path(text).is_file():
            text = Path(text).read_text()
        try:
            stages = json.loads(text)
        except json.JSONDecodeError as error:
            raise SystemExit(
                f"--stages is neither valid JSON nor a JSON file: {error}"
            ) from error

    submission = {
        "codec": None if stages is not None else args.codec,
        "rows": args.rows,
        "cols": args.cols,
        "seed": args.seed,
        "scale": args.scale,
        "params": _parse_cli_params(args.param),
        "stages": stages,
    }
    try:
        record = build_default_registry().run("codec_compress", submission)
    except (ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    metric_rows = [
        {"metric": name, "value": value}
        for name, value in sorted(record["metrics"].items())
    ] + [{"metric": "normalized_mse", "value": record["normalized_mse"]}]
    title = f"{record['codec']} v{record['version']} on {record['shape']} (seed {record['seed']})"
    print(format_table(metric_rows, title=title, precision=6))
    for stage in record.get("stages", []):
        print(
            f"  stage {stage['codec']}: mse={stage['stage_mse']:.3e} "
            f"cumulative={stage['cumulative_mse']:.3e} "
            f"effective_bits={stage['effective_bits']:.3f}"
        )
    print(f"digest: {record['digest']}")
    return 0


def _format_span(node: dict, depth: int = 0) -> list[str]:
    """One line per span, children indented under their parent."""
    duration = node.get("duration")
    timing = f"{duration * 1000:.1f}ms" if isinstance(duration, (int, float)) else "open"
    status = node.get("status") or "open"
    attrs = node.get("attrs") or {}
    detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    line = f"{'  ' * depth}{node.get('name', '?')} [{status} {timing}]"
    if detail:
        line += f"  {detail}"
    lines = [line]
    for child in node.get("children", []):
        lines.extend(_format_span(child, depth + 1))
    return lines


def _obs(args: argparse.Namespace) -> int:
    from .obs import get_metrics, summarize_run_dir
    from .obs.summary import SummaryError, format_summary_table
    from .service.client import ServiceClient, ServiceError

    if args.obs_command == "metrics":
        if args.url is None:
            registry = get_metrics()
            if args.json:
                print(json.dumps(registry.to_jsonable(), indent=2, sort_keys=True))
            else:
                print(registry.render_prometheus(), end="")
            return 0
        try:
            client = ServiceClient(args.url)
            if args.json:
                print(json.dumps(client.metrics(format="json"), indent=2, sort_keys=True))
            else:
                print(client.metrics(), end="")
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        return 0

    if args.obs_command == "trace":
        try:
            payload = ServiceClient(args.url).job_trace(args.job_id)
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(
            f"job {payload['job_id']} ({payload['state']}): "
            f"trace {payload['trace_id']}, {payload['span_count']} span(s)"
        )
        for root in payload["trace"]:
            for line in _format_span(root):
                print(f"  {line}")
        return 0

    # summary
    try:
        summary = summarize_run_dir(args.run_dir)
    except SummaryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary_table(summary))
    return 0


def _analyze(args: argparse.Namespace) -> int:
    """``repro analyze``: run the static invariant checkers."""
    from .analysis import analyze_paths, describe_checkers, format_json, format_table

    if args.list:
        if args.format == "json":
            print(json.dumps(describe_checkers(), indent=2, sort_keys=True))
        else:
            for entry in describe_checkers():
                print(f"{entry['name']:<16} {entry['severity']:<8} {entry['description']}")
        return 0

    def _split(value: str | None) -> list[str] | None:
        if not value:
            return None
        return [part.strip() for part in value.split(",") if part.strip()]

    try:
        report = analyze_paths(
            args.paths, select=_split(args.select), ignore=_split(args.ignore)
        )
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(format_json(report.findings, report.suppressed))
    else:
        if report.findings:
            print(format_table(report.findings))
        if args.show_suppressed and report.suppressed:
            print("suppressed:")
            print(format_table(report.suppressed))
        print(
            f"{len(report.findings)} finding(s), {len(report.suppressed)} "
            f"suppressed, {report.files} file(s) analyzed, "
            f"checkers: {', '.join(report.checkers)}"
        )
    return 1 if report.findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        (commands,) = [
            action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
        ]
        print("available commands:")
        for choice in commands._choices_actions:
            print(f"  {choice.dest:<10} {choice.help}")
        return 0

    if args.command == "ablations":
        results = run_all_ablations(seed=args.seed)
        if args.json:
            print(json.dumps({name: json_payload(r) for name, r in results.items()}, indent=2))
        else:
            for result in results.values():
                print(result["table"])
        return 0

    if args.command == "all":
        results = run_all(fast=args.fast, seed=args.seed, jobs=args.jobs)
        if args.json:
            print(json.dumps(results, indent=2))
        else:
            for result in results.values():
                print(result["table"])
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "gateway":
        return _gateway(args)

    if args.command == "campaign":
        return _campaign(args)

    if args.command == "warehouse":
        return _warehouse(args)

    if args.command == "codec":
        return _codec(args)

    if args.command == "obs":
        return _obs(args)

    if args.command == "chaos":
        return _chaos(args)

    if args.command == "journal":
        return _journal(args)

    if args.command == "analyze":
        return _analyze(args)

    return _run_single(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
