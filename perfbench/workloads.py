"""One benchmark workload in a fresh interpreter (started by ``run.py``).

Usage::

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD --seed N \\
        --seconds S --trace 0|1 --t0 MONOTONIC --state DIR --out RESULT.json

Every workload is a closed loop: the next operation starts when the
previous one has finished.  The program under test only sees inputs
generated from ``--seed``.  ``--setup-only`` performs the set-up (imports,
servers, cache warm-up, input generation), records how long it took since
``--t0`` and exits; ``run.py`` takes the median over several such starts.

With ``--trace 1`` the workload runs the same work with the wrappers of
:mod:`tracer` installed and reports per-layer metrics for it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer, attribute, span_cost_s

HERE = Path(__file__).resolve().parent


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = math.ceil(round(fraction * len(ordered), 6))
    return ordered[max(rank, 1) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Phase:
    """Outcome of one timed closed loop."""

    def __init__(self):
        self.latencies_s: list[float] = []
        self.cpu_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.elapsed_s = 0.0
        self.cpu_elapsed_s = 0.0
        self.start_ns = 0
        self.end_ns = 0
        self.cpu_start_ns = 0
        self.details: dict = {}

    def begin(self) -> None:
        self.start_ns = time.perf_counter_ns()
        self.cpu_start_ns = time.process_time_ns()

    def finish(self) -> None:
        self.end_ns = time.perf_counter_ns()
        self.elapsed_s = (self.end_ns - self.start_ns) / 1e9
        self.cpu_elapsed_s = (time.process_time_ns() - self.cpu_start_ns) / 1e9


class CpuRotation:
    """Moves every thread of this process to the next allowed CPU every
    ``PERIOD_S`` seconds.

    The CPUs of a shared VM do not run at one speed: a CPU whose physical
    core also runs another machine's work is slower, by up to a third, and
    the scheduler keeps a busy thread on whichever CPU it started on.  A run
    then measures that CPU alone, and runs of the same code split into a
    fast and a slow group.  Rotating spends equal time on each CPU, so every
    run measures their average.  All threads share one CPU at a time.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-cpu-rotation")

    def __enter__(self) -> "CpuRotation":
        self._pin(self.cpus[0])
        if len(self.cpus) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        self._pin(*self.cpus)

    def _run(self) -> None:
        turn = 0
        while not self._stop.wait(self.PERIOD_S):
            turn += 1
            self._pin(self.cpus[turn % len(self.cpus)])

    @staticmethod
    def _pin(*cpus: int) -> None:
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:  # the thread has exited
                pass


# ---------------------------------------------------------------------- #
# paper_cold
# ---------------------------------------------------------------------- #

ACCURACY_MODELS = ["ResNet-34", "ViT-Base"]
SWEEP_MODELS = ["ResNet-50", "ViT-Small", "BERT-MRPC"]
#: figure14 (the PE-column sweep) is left out: with it a run takes ~90 s,
#: and the benchmark's ~70 runs must fit its time budget.  Its kernel,
#: ``bitflip_tensor``, still runs ~750 times a pass through BitWave.
EXPERIMENTS = ("figure11", "figure12", "figure13", "figure16")


def paper_pass(seed: int) -> dict:
    """The heavy half of ``repro all --fast`` on a fresh suite.

    The experiment functions are looked up on their module at call time so
    that the traced run's wrappers see them.
    """
    from repro.eval import experiments
    from repro.eval.benchmarks import BenchmarkSuite

    suite = BenchmarkSuite(seed=seed)
    results: dict = {}
    durations: dict = {}
    calls = {
        "figure11": lambda: experiments.figure11_accuracy(models=ACCURACY_MODELS, seed=seed),
        "figure12": lambda: experiments.figure12_speedup(models=SWEEP_MODELS, suite=suite),
        "figure13": lambda: experiments.figure13_energy(
            models=SWEEP_MODELS, suite=suite, results=results["figure12"]["results"]
        ),
        "figure16": lambda: experiments.figure16_pareto(seed, suite=suite),
    }
    for name in EXPERIMENTS:
        start = time.perf_counter()
        try:
            results[name] = calls[name]()
        except Exception:  # a failed experiment is a failed operation
            traceback.print_exc()
            results[name] = None
        durations[name] = time.perf_counter() - start
    return {"results": results, "durations": durations}


def paper_digests(results: dict) -> dict:
    from repro.core import stable_digest
    from repro.eval.experiments import json_payload

    return {
        name: None if result is None else stable_digest(json_payload(result))
        for name, result in results.items()
    }


def load_recorded_digests(seed: int) -> dict | None:
    recorded = json.loads((HERE / "paper_digests.json").read_text())
    return recorded["digests"].get(str(seed))


class PaperCold:
    """Cold pass, then warm passes in the same process (memo populated)."""

    def __init__(self, seed: int, seconds: float, state: Path):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        import repro.eval.experiments  # noqa: F401  (import cost belongs to set-up)
        from repro.core import clear_memo

        clear_memo()
        self.expected = load_recorded_digests(self.seed)

    def _pass(self, phase: Phase, label: str, reference: dict | None) -> dict:
        from repro.core import memo_stats

        before = memo_stats()
        start = time.perf_counter()
        cpu_start = time.process_time()
        outcome = paper_pass(self.seed)
        cpu = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        after = memo_stats()
        digests = paper_digests(outcome["results"])
        phase.latencies_s.append(seconds)
        phase.cpu_s.append(cpu)
        for name, digest in digests.items():
            phase.attempted += 1
            wanted = reference[name] if reference else None
            if digest is None or (wanted is not None and digest != wanted):
                phase.failed += 1
                print(f"paper_cold: {label} {name} digest {digest} != {wanted}", file=sys.stderr)
        phase.details.setdefault("passes", []).append(
            {
                "pass": label,
                "seconds": seconds,
                "experiments_s": outcome["durations"],
                "memo_tensor_hit_ratio": _hit_ratio(before["tensors"], after["tensors"]),
                "memo_model_hit_ratio": _hit_ratio(before["models"], after["models"]),
            }
        )
        return digests

    def run(self, phase: Phase, warm_passes: int | None = None) -> None:
        """Cold pass plus warm passes until ``seconds`` have elapsed."""
        phase.begin()
        cold = self._pass(phase, "cold", self.expected)
        # Without a recorded reference for this seed the cold pass is the
        # reference: warm passes must still reproduce it exactly.
        reference = self.expected or cold
        done = 0
        while True:
            self._pass(phase, "warm", reference)
            done += 1
            if warm_passes is not None:
                if done >= warm_passes:
                    break
            elif time.perf_counter_ns() - phase.start_ns >= self.seconds * 1e9:
                break
        phase.finish()
        passes = phase.details["passes"]
        phase.details["paper_cold_s"] = passes[0]["seconds"]
        phase.details["paper_warm_s"] = median([p["seconds"] for p in passes[1:]])
        phase.details["reference"] = "recorded" if self.expected else "cold pass"

    def traced(self, tracer: Tracer) -> dict:
        window = Phase()
        tracer.install()
        try:
            self.run(window, warm_passes=1)
        finally:
            tracer.uninstall()
        cold, warm = window.details["passes"]
        metrics = {
            "core.memo_tensor_hit_ratio": warm["memo_tensor_hit_ratio"],
            "core.memo_tensor_hit_ratio_cold": cold["memo_tensor_hit_ratio"],
            "core.memo_model_hit_ratio": warm["memo_model_hit_ratio"],
            "core.memo_model_hit_ratio_cold": cold["memo_model_hit_ratio"],
        }
        return {"window": window, "extra": metrics, "ops": 0, "phases": [window]}

    def close(self) -> None:
        pass


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------------- #
# The HTTP fabric shared by gateway_cached and campaign_fresh
# ---------------------------------------------------------------------- #


class Fabric:
    """A gateway fronting two nodes, in-process on ephemeral ports.

    Each node journals into its own directory under ``state``; servers run
    in threads of this process so the traced run sees server-side calls.
    Each node has one worker, so a node's jobs queue behind each other.

    Agents heartbeat (and flush journal replication) every 5 s: at 0.5 s
    the heartbeats land on a few percent of cached requests and make the
    request tail swing from run to run.
    """

    NODES = 2
    WORKERS = 1
    HEARTBEAT_S = 5.0

    def __init__(self, state: Path):
        from repro.gateway import GatewayAgent, create_gateway
        from repro.service import create_server

        self.gateway = create_gateway(
            port=0,
            state_dir=str(state / "gateway"),
            suspect_after=6 * self.HEARTBEAT_S,
            dead_after=60 * self.HEARTBEAT_S,
            sweep_interval=1.0,
        )
        self.threads = [threading.Thread(target=self.gateway.serve_forever, daemon=True)]
        self.url = f"http://127.0.0.1:{self.gateway.port}"
        self.nodes = []
        self.agents = []
        for index in range(self.NODES):
            server = create_server(
                port=0, max_workers=self.WORKERS, journal_dir=str(state / f"node{index}")
            )
            self.threads.append(threading.Thread(target=server.serve_forever, daemon=True))
            self.nodes.append(server)
        for thread in self.threads:
            thread.start()
        for server in self.nodes:
            agent = GatewayAgent(
                self.url,
                f"http://127.0.0.1:{server.port}",
                server,
                heartbeat_interval=self.HEARTBEAT_S,
            )
            agent.start()
            self.agents.append(agent)

    def node_url(self, node_id: str) -> str:
        for agent in self.agents:
            if agent.node_id == node_id:
                return agent.node_url
        raise KeyError(node_id)

    def flush_journals(self) -> None:
        """Ship every node's buffered journal lines to the gateway now."""
        for agent in self.agents:
            agent.flush()

    def http_layers(self) -> dict:
        return {self.gateway: "gateway", **{server: "node" for server in self.nodes}}

    def cache_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for server in self.nodes:
            stats = server.pool.cache.stats()
            hits += stats["hits"]
            misses += stats["misses"]
        return hits, misses

    def hit_ratio_since(self, before: tuple[int, int]) -> float:
        """Node result-cache hit ratio since ``before`` (a :meth:`cache_counts`)."""
        hits, misses = self.cache_counts()
        hits -= before[0]
        misses -= before[1]
        return hits / (hits + misses) if hits + misses else 0.0

    def close(self) -> None:
        for agent in self.agents:
            agent.stop()
        # Each close waits for its serve loop's next poll; wait for all at once.
        closers = [
            threading.Thread(target=server.close) for server in [*self.nodes, self.gateway]
        ]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join(timeout=30.0)
        for thread in self.threads:
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------- #
# gateway_cached
# ---------------------------------------------------------------------- #


class GatewayCached:
    """Cached submissions through the gateway from one closed-loop client.

    One client rather than one per core: client threads share the
    interpreter lock with the in-process servers, so extra clients add lock
    convoys rather than load, and a fixed count keeps runs comparable
    across machines.

    Before timing, each node's finished-job history is filled directly
    (the steady state of a long-running node): a request costs about a
    third more once the history is full, and without the warm-up a run
    would cross that point part-way, at a request count that depends on
    how fast the host is.
    """

    SPECS = 16

    def __init__(self, seed: int, seconds: float, state: Path):
        self.seed = seed
        self.seconds = seconds
        self.state = state

    def setup(self) -> None:
        from repro.core import stable_digest
        from repro.service.client import ServiceClient

        self.fabric = Fabric(self.state)
        rng = random.Random(self.seed)
        self.specs = [
            {
                "type": "quantize_tensor",
                "params": {"rows": 16, "cols": 32, "seed": seed},
            }
            for seed in rng.sample(range(1 << 30), self.SPECS)
        ]
        client = ServiceClient(self.fabric.url, timeout=60.0)
        self.expected = []
        self.home = []
        for spec in self.specs:
            record = client.request("POST", "/v1/jobs?wait=60", spec)
            if record.get("state") != "done":
                raise RuntimeError(f"warm-up job did not finish: {record}")
            self.expected.append(stable_digest(record["result"]))
            self.home.append(record["node"])
        self.clients = []

    def _warm_up(self) -> None:
        """Cached submits straight to each node until its history is full;
        then the nodes replicate the warm-up's journal lines to the gateway,
        which would otherwise happen during the timed requests."""
        from repro.service.client import ServiceClient
        from repro.service.jobs import JobStore

        history = JobStore().max_finished
        for node in sorted(set(self.home)):
            specs = [spec for spec, home in zip(self.specs, self.home, strict=True) if home == node]
            client = ServiceClient(self.fabric.node_url(node), timeout=60.0)
            for index in range(history):
                client.request("POST", "/v1/jobs", specs[index % len(specs)])
            self.clients.append(client)
        self.fabric.flush_journals()

    def _loop(self, phase: Phase, url_for) -> None:
        """Closed loop rotating over the specs for ``seconds``."""
        from repro.core import stable_digest
        from repro.service.client import ServiceClient, ServiceError

        clients: dict = {}
        records: list[tuple[int, dict | None]] = []
        phase.begin()
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            spec_index = len(records) % len(self.specs)
            url = url_for(spec_index)
            client = clients.get(url)
            if client is None:
                client = clients[url] = ServiceClient(url, timeout=60.0)
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                record = client.request("POST", "/v1/jobs", self.specs[spec_index])
            except ServiceError as error:
                print(f"gateway_cached: request failed: {error}", file=sys.stderr)
                record = None
            phase.cpu_s.append(time.process_time() - cpu_start)
            phase.latencies_s.append(time.perf_counter() - start)
            records.append((spec_index, record))
        phase.finish()
        self.clients.extend(clients.values())

        for spec_index, record in records:
            phase.attempted += 1
            ok = (
                record is not None
                and record.get("cache_hit") is True
                and record.get("state") == "done"
                and stable_digest(record.get("result")) == self.expected[spec_index]
            )
            if not ok:
                phase.failed += 1
        phase.details["queue_seconds"] = [
            r["queue_seconds"] for _, r in records if r and r.get("queue_seconds") is not None
        ]
        phase.details["run_seconds"] = [
            r["run_seconds"] for _, r in records if r and r.get("run_seconds") is not None
        ]

    def run(self, phase: Phase) -> None:
        self._warm_up()
        self._loop(phase, lambda _: self.fabric.url)
        del phase.details["queue_seconds"], phase.details["run_seconds"]
        latencies = phase.latencies_s
        phase.details.update(
            req_p50_ms=median(latencies) * 1e3,
            req_p99_ms=percentile(latencies, 0.99) * 1e3,
            req_per_s=len(latencies) / phase.elapsed_s,
            samples=len(latencies),
        )

    def traced(self, tracer: Tracer) -> dict:
        self._warm_up()
        untraced = Phase()
        self._loop(untraced, lambda _: self.fabric.url)
        direct = Phase()
        self._loop(direct, lambda i: self.fabric.node_url(self.home[i]))
        window = Phase()
        before = self.fabric.cache_counts()
        tracer.install(self.fabric.http_layers())
        try:
            self._loop(window, lambda _: self.fabric.url)
        finally:
            tracer.uninstall()
        metrics = {
            "service.cache_hit_ratio": self.fabric.hit_ratio_since(before),
            "service.queue_wait_p50_s": median(window.details["queue_seconds"]),
            "service.run_p50_s": median(window.details["run_seconds"]),
            "node.submit_p50_ms": median(direct.latencies_s) * 1e3,
            "gateway.over_direct": median(untraced.latencies_s) / median(direct.latencies_s),
            "client.retries": sum(c.retry_stats()["total"] for c in self.clients),
        }
        return {
            "window": window,
            "extra": metrics,
            "ops": len(window.latencies_s),
            "phases": [untraced, direct, window],
        }

    def close(self) -> None:
        self.fabric.close()


# ---------------------------------------------------------------------- #
# campaign_fresh
# ---------------------------------------------------------------------- #


def campaign_spec(seed: int) -> dict:
    """A 104-cell codec campaign whose tensor seeds derive from ``seed``."""
    rng = random.Random(f"campaign:{seed}")
    seeds = rng.sample(range(1 << 30), 56)
    shape = {"rows": 64, "cols": 512}
    return {
        "name": f"perfbench-{seed}",
        "grids": [
            {
                "name": "ptq",
                "codec": "ptq",
                "params": shape,
                "sweep": {"bits": [4, 5, 6, 8], "seed": seeds[:8]},
            },
            {
                "name": "bitflip",
                "codec": "bitflip",
                "params": shape,
                "sweep": {"num_columns": [1, 2, 3, 4], "seed": seeds[8:16]},
            },
            {
                "name": "pipeline",
                "pipeline": [
                    {"codec": "prune", "params": {"num_columns": 2}},
                    {"codec": "ptq", "params": {"bits": 6}},
                    {"codec": "bitplane"},
                ],
                "params": shape,
                "sweep": {"seed": seeds[16:56]},
            },
        ],
    }


def cell_latencies(cells: list[dict]) -> dict:
    """Median and p90 of the cells' first-submit-to-checkpoint seconds."""
    walls = [cell["wall_seconds"] for cell in cells]
    return {
        "cell_p50_s": median(walls),
        "cell_p90_s": percentile(walls, 0.90) if walls else 0.0,
    }


class CampaignFresh:
    """One campaign dispatched through the gateway, every cell a cache miss.

    One cell is outstanding at a time.  The dispatcher polls every
    outstanding cell on each sweep, so with its default window of 8 the
    polls cost more CPU than the codecs and their number depends on how the
    host schedules the process; and two workers computing at once slow each
    other down by an amount that depends on the host.
    """

    INFLIGHT = 1

    def __init__(self, seed: int, seconds: float, state: Path):
        self.seed = seed
        self.state = state

    def setup(self) -> None:
        from repro.campaign import parse_spec

        self.fabric = Fabric(self.state)
        self.spec = parse_spec(campaign_spec(self.seed))

    def _dispatch(self, phase: Phase) -> tuple[list[dict], list]:
        """Dispatch the campaign; return the cells' checkpoint timings and
        the dispatcher's clients."""
        from repro.campaign import CampaignDispatcher, CampaignRunError, DispatchError

        clients = []
        phase.begin()
        try:
            dispatcher = CampaignDispatcher(
                self.spec,
                [],
                self.state / "dispatch",
                max_inflight=self.INFLIGHT,
                gateway=self.fabric.url,
            )
            clients = [node.client for node in dispatcher.nodes]
            dispatcher.run()
        except (CampaignRunError, DispatchError) as error:
            print(f"campaign_fresh: dispatch failed: {error}", file=sys.stderr)
        phase.finish()
        cells = [
            json.loads(path.read_text()).get("timing") or {}
            for path in sorted((self.state / "dispatch" / "results").glob("*.json"))
        ]
        return cells, clients

    def _check(self, phase: Phase, cells: list[dict]) -> None:
        """Every cell is checkpointed and the dispatched report equals a
        local run's, byte for byte."""
        from repro.campaign import run_campaign
        from repro.campaign.spec import expand_spec

        total = len(expand_spec(self.spec).jobs)
        phase.attempted += total + 1
        phase.failed += total - len(cells)
        local_dir = self.state / "local"
        run_campaign(self.spec, run_dir=local_dir)
        report = self.state / "dispatch" / "report.json"
        if not report.is_file() or report.read_bytes() != (local_dir / "report.json").read_bytes():
            phase.failed += 1
            print(f"campaign_fresh: {report} differs from the local run", file=sys.stderr)

    def run(self, phase: Phase) -> None:
        """One operation is the whole campaign: per-cell latencies swing by
        a fifth between runs with queue position and poll back-off, while
        the campaign's wall clock repeats to a few percent."""
        cells, _ = self._dispatch(phase)
        phase.latencies_s.append(phase.elapsed_s)
        phase.cpu_s.append(phase.cpu_elapsed_s)
        phase.details.update(campaign_s=phase.elapsed_s, cells=len(cells), **cell_latencies(cells))
        self._check(phase, cells)

    def traced(self, tracer: Tracer) -> dict:
        window = Phase()
        before = self.fabric.cache_counts()
        tracer.install(self.fabric.http_layers())
        try:
            cells, clients = self._dispatch(window)
        finally:
            tracer.uninstall()
        hit_ratio = self.fabric.hit_ratio_since(before)
        self._check(window, cells)
        queue = [c["queue_seconds"] for c in cells if c.get("queue_seconds") is not None]
        run = [c["run_seconds"] for c in cells if c.get("run_seconds") is not None]
        poll = [
            c["wall_seconds"] - (c.get("queue_seconds") or 0.0) - (c.get("run_seconds") or 0.0)
            for c in cells
        ]
        metrics = {
            "service.cache_hit_ratio": hit_ratio,
            "service.queue_wait_p50_s": median(queue),
            "service.run_p50_s": median(run),
            "campaign.poll_wait_p50_s": median(poll),
            "client.retries": sum(c.retry_stats()["total"] for c in clients),
            **{f"campaign.{name}": value for name, value in cell_latencies(cells).items()},
        }
        return {"window": window, "extra": metrics, "ops": len(cells), "phases": [window]}

    def close(self) -> None:
        self.fabric.close()


WORKLOADS = {
    "paper_cold": PaperCold,
    "gateway_cached": GatewayCached,
    "campaign_fresh": CampaignFresh,
}


# ---------------------------------------------------------------------- #
# Per-layer metrics of a traced window
# ---------------------------------------------------------------------- #

#: Self seconds of one span name.
SELF_SECONDS = {
    "nn.synthesize_s": "nn.synthesize",
    "nn.train_s": "nn.train",
    "quant.clip_search_s": "quant.clip_search",
    "quant.bitflip_s": "quant.bitflip",
    "core.prune_s": "core.prune",
    "core.global_prune_s": "core.global_prune",
    "accelerators.run_model_s": "accelerators.run_model",
    "codecs.compress_s": "codecs.compress",
    "campaign.expand_s": "campaign.expand",
    "campaign.checkpoint_s": "campaign.checkpoint",
    "campaign.report_s": "campaign.report",
}
#: Calls of one span name (nested re-entries excluded).
CALLS = {
    "nn.synthesize_calls": "nn.synthesize",
    "quant.clip_search_calls": "quant.clip_search",
    "quant.bitflip_calls": "quant.bitflip",
    "core.prune_calls": "core.prune",
    "accelerators.run_model_calls": "accelerators.run_model",
    "codecs.compress_calls": "codecs.compress",
}
#: Inclusive seconds of one span name (the experiment functions).
INCLUSIVE_SECONDS = {
    "eval.figure11_s": "eval.figure11",
    "eval.figure12_s": "eval.figure12",
    "eval.figure16_s": "eval.figure16",
}
#: Mean inclusive microseconds per call.
MICROSECONDS_PER_CALL = {
    "service.pool_submit_us": "service.pool_submit",
    "service.journal_append_us": "service.journal_append",
    "gateway.route_us": "gateway.route",
    "gateway.replica_record_us": "gateway.replica_record",
}
#: Calls per workload operation (request or campaign cell).
CALLS_PER_OPERATION = {
    "service.journal_appends_per_req": "service.journal_append",
    "gateway.replica_records_per_req": "gateway.replica_record",
    "client.connects_per_req": "client.connect",
}


#: Workload-reported per-layer numbers; a workload that bypasses the layer
#: reports 0.
EXTRA = (
    "core.memo_tensor_hit_ratio",
    "core.memo_tensor_hit_ratio_cold",
    "core.memo_model_hit_ratio",
    "core.memo_model_hit_ratio_cold",
    "service.cache_hit_ratio",
    "service.queue_wait_p50_s",
    "service.run_p50_s",
    "node.submit_p50_ms",
    "gateway.over_direct",
    "client.retries",
    "campaign.poll_wait_p50_s",
    "campaign.cell_p50_s",
    "campaign.cell_p90_s",
)


def layer_metrics(workload: str, tracer: Tracer, traced: dict) -> dict:
    window: Phase = traced["window"]
    result = attribute(tracer.spans, window.start_ns, window.end_ns)
    ops = traced["ops"]
    metrics = dict.fromkeys(EXTRA, 0.0)
    for metric, name in SELF_SECONDS.items():
        metrics[metric] = result.name_s.get(name, 0.0)
    for metric, name in CALLS.items():
        metrics[metric] = result.calls.get(name, 0)
    for metric, name in INCLUSIVE_SECONDS.items():
        metrics[metric] = result.inclusive_s.get(name, 0.0)
    for metric, name in MICROSECONDS_PER_CALL.items():
        calls = result.calls.get(name, 0)
        metrics[metric] = result.inclusive_s.get(name, 0.0) / calls * 1e6 if calls else 0.0
    for metric, name in CALLS_PER_OPERATION.items():
        metrics[metric] = result.calls.get(name, 0) / ops if ops else 0.0
    metrics["eval.self_s"] = result.layer_s.get("eval", 0.0)
    metrics["client.connect_share"] = result.name_s.get("client.connect", 0.0) / result.wall_s
    for layer in LAYERS:
        metrics[f"{layer}.share"] = result.layer_s.get(layer, 0.0) / result.wall_s
    for name in WORKLOADS:
        metrics[f"{name}.unattributed_s"] = result.unattributed_s if name == workload else 0.0
    metrics["trace.wall_s"] = result.wall_s
    metrics["trace.spans"] = len(tracer.spans)
    # (traced - untraced) / untraced, with the difference taken as the spans
    # recorded times the measured cost of one span: a traced and an untraced
    # repeat of the work differ by more than that from run-to-run noise alone.
    added_s = len(tracer.spans) * span_cost_s()
    metrics["trace.overhead_frac"] = added_s / (result.wall_s - added_s)
    metrics.update(traced["extra"])
    attributed = sum(result.layer_s.values())
    metrics["trace.attribution_error_s"] = result.wall_s - attributed - result.unattributed_s
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w") as stream:
        for span in tracer.spans:
            stream.write(
                json.dumps([span.name, span.thread, span.start, span.end, span.nested]) + "\n"
            )


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--state", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.state.mkdir(parents=True, exist_ok=True)
    with CpuRotation():
        out = run_workload(args)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"numpy": sys.modules["numpy"].__version__}
    args.out.write_text(json.dumps(out))
    return 0


def run_workload(args) -> dict:
    """Set up, run (or only set up) and close the workload; return its result."""
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.state)
    workload.setup()
    # Set-up in CPU seconds of this process since it started (interpreter
    # start included); the wall clock from --t0 is kept beside it.
    out: dict = {"setup_cpu_s": time.process_time(), "setup_s": time.monotonic() - args.t0}
    try:
        if args.setup_only:
            pass
        elif args.trace:
            tracer = Tracer()
            traced = workload.traced(tracer)
            if tracer.missing:
                print(f"perfbench: wrap targets not found: {tracer.missing}", file=sys.stderr)
            phases = traced["phases"]
            out["attempted"] = sum(p.attempted for p in phases)
            out["failed"] = sum(p.failed for p in phases)
            out["per_layer"] = layer_metrics(args.workload, tracer, traced)
            out["per_layer"]["failed_frac"] = out["failed"] / max(out["attempted"], 1)
            write_spans(tracer, args.out.with_name("spans.jsonl"))
        else:
            phase = Phase()
            workload.run(phase)
            out.update(
                attempted=phase.attempted,
                failed=phase.failed,
                latencies_s=phase.latencies_s,
                cpu_s=phase.cpu_s,
                elapsed_s=phase.elapsed_s,
                cpu_elapsed_s=phase.cpu_elapsed_s,
                details={k: v for k, v in phase.details.items() if _jsonable(v)},
            )
    finally:
        workload.close()
    return out


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
