"""Federated campaign execution: one campaign through one gateway endpoint.

The dispatcher takes the same expanded, content-addressed plan the local
:class:`~repro.campaign.runner.CampaignRunner` executes, but ships each cell
to a gateway instead of a local worker pool: a running ``repro gateway``
(``gateway=URL``) or, for ``endpoints=[URL, ...]`` (``--nodes``), an
in-process :class:`~repro.gateway.server.GatewayServer` on ``127.0.0.1:0``
that admits each URL as a static member and is closed when :meth:`run`
returns.  The gateway does the federation: it routes each cell by content
digest (a re-dispatched cell lands where its result is cached), refuses
registry-skewed nodes, answers 429 for a saturated node, and replays a dead
node's unfinished cells onto survivors — polls never see the death.

The grid walk is the local runner's own
:meth:`~repro.campaign.runner.CampaignRunner.walk` — dependency order,
failed-grid propagation, checkpoint skipping, the report once the manifest
is complete — so grid DAG semantics are a local run's by construction.  What
is left here is the endpoint executor for one grid: submit up to the window,
wait for the oldest cell on the endpoint (``GET /v1/jobs/<id>?wait=``, which
answers with the result), checkpoint, back off on 429.  The run directory
layout, the per-cell ``results/<digest>.json`` checkpoints, and the report
built only from the manifest order and the checkpoint payloads are the
runner's too — so a dispatched report is **byte-identical** to a local one,
resumes idempotently, and when no node is left the dispatch fails with
:class:`DispatchError` and the checkpoints intact.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NoReturn

from ..eval.reporting import to_jsonable
from ..gateway.registry import RegistrySkewError
from ..gateway.server import GatewayServer
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..obs.timing import timed
from ..service.client import (
    ServiceClient,
    ServiceError,
    ServiceRequestError,
    ServiceUnavailable,
)
from ..service.registry import compute_registry_digest
from .runner import CampaignRunner
from .spec import CampaignJob, CampaignSpec

__all__ = ["CampaignDispatcher", "DispatchError"]

_COOLDOWNS_TOTAL = get_metrics().get("repro_dispatch_cooldowns_total")

#: Remote job states that end a cell.
_TERMINAL = ("done", "failed", "cancelled")

#: A cell is failed (not retried forever) once it has been (re)submitted
#: this many times without reaching a checkpoint — the backstop against a
#: persistently broken cell (e.g. a result the node cannot serialize)
#: turning the dispatch loop into a livelock.
MAX_CELL_ATTEMPTS = 5

#: Health timing of the in-process gateway behind ``endpoints``: members are
#: probed every ``_PROBE_INTERVAL`` seconds, and one that has not answered
#: for ``_DEAD_AFTER`` seconds is dead (its cells replay on survivors).
_PROBE_INTERVAL = 0.25
_SUSPECT_AFTER = 1.0
_DEAD_AFTER = 2.0

#: Longest server-side wait of one ``GET /v1/jobs/<id>?wait=`` on the oldest
#: outstanding cell.  The other cells are looked at only when it answers, so
#: a younger cell that finishes first is noticed within this many seconds,
#: the cap of the idle back-off.
_LONG_POLL_S = 1.0


class DispatchError(RuntimeError):
    """No reachable node is left to run the remaining cells."""


@dataclass
class _Node:
    """One endpoint URL as the run's stats report it."""

    url: str
    #: The dispatcher's client; under ``endpoints`` every member shares the
    #: client of the in-process gateway (set once :meth:`run` opened it).
    client: ServiceClient | None = None
    alive: bool = True
    reason: str = ""
    submitted: int = 0
    completed: int = 0
    #: Circuit-breaker state of the client that reached this URL.
    breaker: dict | None = None

    def summary(self) -> dict:
        summary = {
            "url": self.url,
            "alive": self.alive,
            "reason": self.reason,
            "submitted": self.submitted,
            "completed": self.completed,
        }
        if self.breaker is not None:
            summary["breaker"] = self.breaker
        return summary


@dataclass
class _Cell:
    """One cell on its way through the endpoint."""

    job: CampaignJob
    remote_id: str = ""
    #: Submissions the endpoint answered (landed or rejected).
    attempts: int = 0
    #: The cell's ``dispatch.cell`` span, open from first submission until
    #: checkpoint or give-up; resubmissions keep (and re-propagate) it, so
    #: one cell is one span however often it was sent.
    span: obs_trace.Span | None = field(default=None, repr=False)
    #: Wall-clock first-submission time, surviving resubmissions — the basis
    #: of the checkpoint's ``wall_seconds``.
    started_at: float = 0.0


class CampaignDispatcher:
    """Execute (or resume) one campaign through one gateway endpoint."""

    def __init__(
        self,
        spec: CampaignSpec,
        endpoints: list[str],
        run_dir: str | Path,
        registry=None,
        poll_interval: float = 0.05,
        max_inflight: int = 8,
        client_factory=ServiceClient,
        client_options: dict | None = None,
        ingest_db: str | None = None,
        gateway: str | None = None,
    ):
        self.gateway = gateway.rstrip("/") if gateway else None
        if self.gateway is not None and endpoints:
            raise ValueError("pass either endpoints or gateway=, not both")
        if self.gateway is None and not endpoints:
            raise ValueError("at least one service endpoint is required")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        # The runner provides the identical run-dir layout, checkpointing,
        # and report machinery (including --ingest auto-warehousing); the
        # dispatcher only replaces execution.
        self.runner = CampaignRunner(spec, run_dir, registry=registry, ingest_db=ingest_db)
        self.spec = self.runner.spec
        self.plan = self.runner.plan
        self.run_dir = self.runner.run_dir
        self.poll_interval = poll_interval
        #: Cells held per node: the window is this times the admitted nodes.
        self.max_inflight = max_inflight
        self._client_factory = client_factory
        self._client_options = dict(client_options or {})
        self.client: ServiceClient | None = None
        if self.gateway is not None:
            self.client = client_factory(self.gateway, **self._client_options)
            self.nodes = [_Node(self.gateway, self.client)]
        else:
            self.nodes = [_Node(url.rstrip("/")) for url in endpoints]
        self.stats: dict[str, Any] = {}
        self._window = max_inflight
        self._cooldowns = 0
        self._root_span: obs_trace.Span | None = None
        #: The in-process gateway while :meth:`run` drives ``endpoints``.
        self._local_gateway: GatewayServer | None = None
        self._members: dict[str, _Node] = {}

    # ------------------------------------------------------------------ #
    # The endpoint
    # ------------------------------------------------------------------ #

    @contextmanager
    def _endpoint(self):
        """Open the run's one endpoint; for ``endpoints``, host it here.

        The in-process gateway admits each URL as a static member (a node
        that does not answer ``GET /v1/health`` or reports another registry
        digest is left out, not fatal), serves on an ephemeral local port,
        and is closed on the way out — after one last probe, so the node
        rows report who was still answering when the run ended.
        """
        if self.gateway is not None:
            yield
            return
        gateway = GatewayServer(
            ("127.0.0.1", 0),
            registry=self.runner.registry,
            suspect_after=_SUSPECT_AFTER,
            dead_after=_DEAD_AFTER,
            sweep_interval=_PROBE_INTERVAL,
        )
        # A short serve-loop poll: closing waits for the loop to notice.
        thread = threading.Thread(
            target=gateway.serve_forever, args=(0.05,), name="dispatch-gateway", daemon=True
        )
        thread.start()
        self._local_gateway = gateway
        try:
            for node in self.nodes:
                client = self._client_factory(node.url, **self._client_options)
                try:
                    member = gateway.admit_static(node.url, client)
                except RegistrySkewError as error:
                    node.alive, node.reason = False, f"registry skew: {error}"
                except ServiceError as error:
                    node.alive, node.reason = False, f"health check failed: {error}"
                else:
                    self._members[member.node_id] = node
            if not self._members:
                raise DispatchError(self._dead_fleet_message())
            self.client = self._client_factory(
                f"http://127.0.0.1:{gateway.port}", **self._client_options
            )
            for node in self.nodes:
                node.client = self.client
            self._window = self.max_inflight * len(self._members)
            yield
        finally:
            gateway.probe_static()
            self._refresh_members()
            self._local_gateway = None
            gateway.close()
            thread.join(timeout=5.0)

    def _refresh_members(self) -> None:
        """Copy the in-process gateway's view of each member into its row."""
        gateway = self._local_gateway
        for node_id, node in self._members.items():
            member = gateway.nodes.get(node_id)
            node.alive = member.state == "healthy"
            node.reason = member.reason
            node.breaker = gateway.node_client(node_id).breaker.stats()

    def _check_registry(self) -> None:
        """The one skew check: the endpoint must canonicalize like the plan."""
        try:
            remote = self.client.health().get("registry_digest")
        except ServiceError as error:
            self._lose_endpoint(f"health check failed: {error}")
        local = compute_registry_digest(self.runner.registry)
        if remote != local:
            self._lose_endpoint(
                f"registry skew: endpoint digest {str(remote)[:12]}..., "
                f"local plan {local[:12]}..."
            )

    def _lose_endpoint(self, reason: str) -> NoReturn:
        """Fail the dispatch: the endpoint (or every node behind it) is gone.

        ``reason`` goes to a remote gateway's row; the in-process gateway's
        rows report each member's own state and reason.
        """
        if self._local_gateway is not None:
            self._refresh_members()
        else:
            for node in self.nodes:
                node.alive, node.reason = False, reason
        raise DispatchError(self._dead_fleet_message())

    def _check_nodes_left(self, error: ServiceUnavailable | None = None) -> None:
        """Raise :class:`DispatchError` once no node can run a cell.

        ``error`` is a request the endpoint failed through every retry: a
        remote gateway that does so is gone.  The in-process gateway is gone
        once every member is dead — a suspect one may answer its next probe,
        and until then its cells poll as ``queued``.
        """
        gateway = self._local_gateway
        if gateway is None:
            if error is not None:
                self._lose_endpoint(str(error))
            return
        if not any(m.state in ("healthy", "suspect") for m in gateway.nodes.nodes()):
            self._lose_endpoint("no member left")

    def _dead_fleet_message(self) -> str:
        details = "; ".join(f"{node.url}: {node.reason}" for node in self.nodes)
        return f"no reachable service node left ({details})"

    def _node_for(self, record: dict) -> _Node | None:
        """The stats row a gateway record belongs to."""
        if self.gateway is not None:
            return self.nodes[0]
        return self._members.get(record.get("node"))

    # ------------------------------------------------------------------ #
    # Cell submission / completion
    # ------------------------------------------------------------------ #

    def _submit(self, cell: _Cell) -> None:
        """POST one cell to the endpoint (raises the client's errors).

        The cell's ``dispatch.cell`` span is *activated* around the call, so
        the client propagates it in ``X-Repro-Trace``: the gateway's
        ``gateway.request`` span and, below it, the node's
        ``http.request``/``job.run`` spans become its descendants — one
        connected trace per cell across machines.
        """
        if cell.span is None:
            cell.span = obs_trace.start_span(
                "dispatch.cell",
                attrs={"cell": cell.job.cell, "grid": cell.job.grid,
                       "scenario": cell.job.scenario},
                parent=self._root_span.context if self._root_span else None,
            )
            cell.started_at = time.time()
        with obs_trace.activate(cell.span):
            try:
                record = self.client.submit(
                    cell.job.scenario,
                    to_jsonable(cell.job.params),
                    deadline_s=self.spec.deadline_s,
                )
            except ServiceRequestError:
                cell.attempts += 1  # the endpoint answered: it counts
                raise
        cell.attempts += 1
        cell.remote_id = record["job_id"]
        node = self._node_for(record)
        if node is not None:
            node.submitted += 1
            cell.span.set_attr("node", node.url)

    def _cell_timing(self, cell: _Cell, record: dict, node: _Node | None) -> dict:
        """Provenance block for a remotely executed cell's checkpoint.

        Mirrors :func:`repro.campaign.runner.job_timing` for local runs, with
        the node URL as the worker identity; ``wall_seconds`` spans from first
        submission, so resubmissions and failovers are included.
        """
        worker = node.url if node is not None else self.client.base_url
        remote_worker = record.get("worker")
        if isinstance(remote_worker, str) and remote_worker:
            worker = f"{worker}#{remote_worker}"
        return {
            "wall_seconds": max(time.time() - cell.started_at, 0.0),
            "queue_seconds": record.get("queue_seconds"),
            "run_seconds": record.get("run_seconds"),
            "worker": worker,
            "cache_hit": record.get("cache_hit"),
            "attempts": cell.attempts,
        }

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> dict:
        """Dispatch every pending cell; return the run stats.

        :meth:`CampaignRunner.walk` walks the plan with :meth:`_run_grid` as
        its executor.  Raises :class:`~repro.campaign.runner.CampaignRunError`
        when cells failed remotely, or :class:`DispatchError` when no node is
        left.
        """
        # The root span is created but NOT activated for the whole run: cell
        # spans parent to it explicitly, while the completion GETs stay out
        # of the trace (one or more per cell would drown the cell tree).
        self._root_span = obs_trace.start_span(
            "campaign.dispatch",
            attrs={
                "campaign": self.spec.name,
                "run_dir": str(self.run_dir),
                "nodes": [node.url for node in self.nodes],
            },
        )
        with timed("campaign.dispatch") as timer:
            try:
                self.runner.prepare_run_dir()
                with self._endpoint():
                    self._check_registry()
                    stats, failures = self.runner.walk(self.plan, self._run_grid)
            except BaseException as error:
                self._root_span.finish(error=f"{type(error).__name__}: {error}")
                raise
            self._root_span.finish(status="error" if failures else "ok")

        if self.gateway is not None:
            self.nodes[0].breaker = self.client.breaker.stats()
        del stats["interrupted"]  # no max_jobs budget: a dispatch runs to the end
        self.stats = {
            **stats,
            "mode": "gateway" if self.gateway is not None else "dispatch",
            "trace_id": self._root_span.trace_id,
            "nodes": [node.summary() for node in self.nodes],
            "elapsed_seconds": timer.seconds,
            "client": {
                "retries": sum(self.client.retries_by_reason.values()),
                "retries_by_reason": dict(sorted(self.client.retries_by_reason.items())),
                "cooldowns_429": self._cooldowns,
            },
        }
        return self.runner.finish(self.stats, failures)

    def _run_grid(
        self, grid_name: str, pending: list[CampaignJob]
    ) -> list[tuple[CampaignJob, str]]:
        """Run one grid's pending cells through the endpoint; return the failures."""
        queue = [_Cell(job) for job in pending]
        outstanding: dict[str, _Cell] = {}  # cell id -> in-flight cell
        failures: list[tuple[CampaignJob, str]] = []
        idle_sleep = self.poll_interval

        def retry_or_fail(cell: _Cell, error: ServiceRequestError) -> None:
            # Usually the endpoint no longer knows the record (a node's
            # finished history is bounded) and the result is still in the
            # node's content-hash cache, so resubmitting is an instant hit.
            # Bounded, because a *persistent* error (e.g. a result the node
            # cannot serialize is a 500 on every fetch) would otherwise
            # livelock the dispatch.
            if cell.attempts >= MAX_CELL_ATTEMPTS:
                failures.append(
                    (cell.job, f"gave up after {cell.attempts} attempt(s): {error}")
                )
                cell.span.finish(error=f"gave up after {cell.attempts} attempt(s)")
            else:
                queue.insert(0, cell)

        cells = list(queue)
        try:
            while queue or outstanding:
                self._check_nodes_left()
                while queue and len(outstanding) < self._window:
                    cell = queue.pop(0)
                    try:
                        self._submit(cell)
                    except ServiceUnavailable as error:
                        queue.insert(0, cell)  # parked until the endpoint drains
                        if not error.saturated:
                            self._check_nodes_left(error)
                            break
                        # A full queue (429 through every retry) is backpressure,
                        # not death: hold no more than what is in flight now.
                        self._window = max(1, len(outstanding))
                        self._cooldowns += 1
                        _COOLDOWNS_TOTAL.inc()
                        break
                    except ServiceRequestError as error:
                        # The endpoint refused this cell outright.
                        retry_or_fail(cell, error)
                        continue
                    outstanding[cell.job.cell] = cell

                # Wait on the endpoint for the oldest cell; look at the others
                # (wait=0) once it answered.  A waited answer for a done job
                # carries the result, so a cell costs a submit and one GET.
                progressed = False
                asked = time.monotonic()
                for index, (cell_id, cell) in enumerate(list(outstanding.items())):
                    try:
                        record = self.client.job(
                            cell.remote_id, wait=0 if index else _LONG_POLL_S
                        )
                        if record["state"] == "done" and "result" not in record:
                            record = self.client.result(cell.remote_id)
                    except ServiceUnavailable as error:
                        self._check_nodes_left(error)
                        continue
                    except ServiceRequestError as error:
                        del outstanding[cell_id]
                        progressed = True
                        retry_or_fail(cell, error)
                        continue
                    if record["state"] not in _TERMINAL:
                        continue
                    del outstanding[cell_id]
                    progressed = True
                    if record["state"] == "done":
                        node = self._node_for(record)
                        self.runner.checkpoint(
                            cell.job, record["result"], timing=self._cell_timing(cell, record, node)
                        )
                        if node is not None:
                            node.completed += 1
                        cell.span.set_attr("attempts", cell.attempts)
                        cell.span.finish()
                    else:
                        failures.append(
                            (cell.job, record.get("error") or f"remote job {record['state']}")
                        )
                        cell.span.finish(error=f"remote job {record['state']}")
                if progressed:
                    idle_sleep = self.poll_interval
                elif (queue or outstanding) and time.monotonic() - asked < _LONG_POLL_S:
                    # Nothing finished and no wait paced this sweep (nothing
                    # was outstanding, or the endpoint answered early, e.g. a
                    # lost node's synthetic "queued"): back off, capped at 1s,
                    # so the loop never spins.
                    time.sleep(idle_sleep)
                    idle_sleep = min(idle_sleep * 1.5, 1.0)
        except BaseException as error:
            # The fleet is gone (or the run was stopped): close the span of
            # every cell still on its way, so the trace shows where it died.
            for cell in cells:
                if cell.span is not None:
                    cell.span.finish(error=f"{type(error).__name__}: {error}")
            raise
        return failures
