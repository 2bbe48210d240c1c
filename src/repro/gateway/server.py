"""The gateway front door: one URL that routes, replicates, and fails over.

``repro gateway`` serves the same submission surface as a node
(``POST /v1/jobs``, ``/v1/compress``, ``/v1/campaign``) plus the node-ops
endpoints the fleet uses to assemble itself.  Clients — above all
:class:`~repro.campaign.dispatch.CampaignDispatcher`, which always drives a
gateway (an in-process one for ``--nodes``) — talk to the gateway exactly as
they would to a single node; the gateway:

* **admits nodes** two ways: agents (``repro serve --register``) register
  and heartbeat; static members (:meth:`GatewayServer.admit_static`, what
  ``--nodes`` uses) are admitted with the registry digest of their
  ``GET /v1/health`` and probed on ``GET /v1/readyz`` by the sweeper, a
  successful probe counting as a heartbeat;
* **canonicalizes** every submission with the same shared helpers nodes use
  (:func:`~repro.service.server.canonicalize_compress` et al.), computes the
  content digest *before* choosing a node, and
* **routes by digest** over a consistent-hash ring (:mod:`.ring`), so a
  re-submitted job lands on the node whose result cache already holds it;
  the node's answer must echo the same digest or the proxy answers 502
  (registry skew caught per response);
* **replicates journals**: nodes stream their journal lines in, and the
  gateway writes its own submit line per routed job at proxy time — so a
  node SIGKILLed before its shipper flushed still leaves the gateway
  knowing every job it owed;
* **fails over**: when the registry sweeps a node to dead, its unfinished
  replica jobs are replayed onto ring survivors; polls for a dead node's
  jobs answer synthetically (``state: "queued"``) until the replacement
  exists, then follow the mapping — the dispatcher never sees the death;
* **meters tenants**: with a keys file, submissions authenticate with
  ``Authorization: Bearer`` and are charged against per-tenant token-bucket
  rate and max-inflight quotas (429 + ``Retry-After``, same contract as a
  saturated node queue).

Gateway job ids are ``<remote id>@<node id>``; the proxy rewrites ids on the
way out and back so callers never handle node-local ids.
"""

from __future__ import annotations

import tempfile
import threading
import time
from urllib.parse import urlencode

from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..service.client import (
    ServiceClient,
    ServiceError,
    ServiceRequestError,
    ServiceUnavailable,
)
from ..service.http import (
    API_VERSION,
    HTTPError,
    HTTPHandler,
    HTTPServerBase,
    Route,
    parse_json_body,
    parse_non_negative_int,
    parse_wait,
    retry_after_header,
    route_names,
)
from ..service.registry import ScenarioRegistry, build_default_registry
from ..service.server import canonicalize_submission
from ..service.workers import job_digest
from .quotas import ANONYMOUS_TENANT, QuotaExceeded, TenantQuotas, UnknownKeyError
from .registry import NodeRegistry, RegistrySkewError, UnknownNodeError, compute_registry_digest
from .replication import ReplicaStore
from .ring import HashRing

__all__ = ["GATEWAY_ROUTES", "GatewayHandler", "GatewayServer", "create_gateway"]

_OBS = get_metrics()
_GW_REQUESTS = _OBS.get("repro_gateway_requests_total")
_GW_SECONDS = _OBS.get("repro_gateway_proxy_seconds")
_FAILOVER = _OBS.get("repro_gateway_failover_replays_total")

#: Terminal job states, mirrored from the node API (string form — the
#: gateway never imports job objects, it only proxies their JSON).
_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


class NoRouteError(Exception):
    """No healthy node can take this submission right now."""


class FleetSaturated(Exception):
    """The digest's node answered 429 through every attempt."""

    def __init__(self, node_id: str, cause: str, retry_after: float = 1.0):
        super().__init__(f"node {node_id} saturated: {cause}")
        self.node_id = node_id
        self.retry_after = retry_after


class GatewayHandler(HTTPHandler):
    server: "GatewayServer"
    server_version = "repro-gateway/1.0"
    span_name = "gateway.request"
    internal_error = "internal gateway error"

    def _handle(self) -> None:
        # The tenant label starts anonymous and is upgraded once a request
        # authenticates, so the per-tenant request counter stays a closed
        # set (keys-file names + anonymous).
        self.tenant = ANONYMOUS_TENANT
        super()._handle()

    def record_request(self, route: str, status: int, seconds: float) -> None:
        _GW_SECONDS.observe(seconds, route=route)
        _GW_REQUESTS.inc(route=route, status=str(status), tenant=self.tenant)

    def error_response(self, error: Exception):
        if isinstance(error, UnknownKeyError):
            return 401, {"error": str(error)}, {"WWW-Authenticate": "Bearer"}
        if isinstance(error, QuotaExceeded):
            payload = {
                "error": str(error),
                "tenant": error.tenant,
                "reason": error.reason,
                "retry_after": error.retry_after,
            }
            return 429, payload, retry_after_header(error.retry_after)
        if isinstance(error, RegistrySkewError):
            return 409, {"error": str(error)}
        if isinstance(error, UnknownNodeError):
            node_id = error.args[0] if error.args else "?"
            return 404, {"error": f"unknown node {node_id!r}"}
        if isinstance(error, FleetSaturated):
            payload = {"error": str(error), "retry_after": error.retry_after}
            return 429, payload, retry_after_header(error.retry_after)
        if isinstance(error, NoRouteError):
            return 503, {"error": f"no healthy node available: {error}"}
        if isinstance(error, ServiceRequestError):
            # A node answered with a definitive error: pass it through under
            # the node's own status so clients see one consistent API.
            payload = error.payload if isinstance(error.payload, dict) else None
            return error.status, payload or {"error": str(error)}
        if isinstance(error, ServiceUnavailable):
            return 502, {"error": f"node unreachable: {error}"}
        return None

    def not_ready_reason(self) -> str | None:
        """Ready when at least one registered node is healthy to route to."""
        return None if self.server.nodes.healthy_ids() else "no healthy nodes registered"

    def _authenticate(self):
        """The request's tenant when quotas are enforced, else ``None``."""
        quotas = self.server.quotas
        if quotas is None:
            return None
        tenant = quotas.tenant_for(self.headers.get("Authorization"))
        self.tenant = tenant.name
        return tenant

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def health(self) -> None:
        server = self.server
        self.send_json(
            200,
            {
                "status": "ok",
                "api_version": API_VERSION,
                "role": "gateway",
                "uptime_seconds": time.time() - server.started_at,
                "scenarios": len(server.registry),
                "registry_digest": server.registry_digest,
                "nodes": server.nodes.counts(),
            },
        )

    def list_nodes(self) -> None:
        server = self.server
        self.send_json(
            200,
            {
                "nodes": [node.to_dict() for node in server.nodes.nodes()],
                "counts": server.nodes.counts(),
                "registry_digest": server.registry_digest,
            },
        )

    def list_jobs(self) -> None:
        self.send_json(200, self.server.list_jobs(self.query))

    def job(self, gid: str) -> None:
        wait = parse_wait(self.query)
        self.send_json(*self.server.proxy_job_get(gid, "", wait=wait))

    def job_result(self, gid: str) -> None:
        self.send_json(*self.server.proxy_job_get(gid, "/result"))

    def job_trace(self, gid: str) -> None:
        self.send_json(*self.server.proxy_job_get(gid, "/trace"))

    def cancel_job(self, gid: str) -> None:
        # Cancelling releases the job's quota slot, so it must not be open
        # to anonymous callers when tenants are enforced; rate is not
        # charged — a cancel sheds load, it does not add any.
        self._authenticate()
        self.send_json(*self.server.proxy_cancel(gid))

    def submit(self) -> None:
        """Canonicalize -> authorize -> route by digest -> proxy -> record."""
        server = self.server
        path = self.route.pattern
        body = parse_json_body(self.body)
        tenant = self._authenticate()
        if tenant is not None:
            server.quotas.admit(tenant)
        # Validated here, before a quota slot is held or a node is tried: a
        # malformed value must be the caller's 400, not a node failure.
        wait = parse_wait(self.query)
        try:
            job_type, params, digest, deadline_s = server.canonicalize(path, body)
        except ValueError as error:
            raise HTTPError(400, str(error)) from None
        if tenant is not None:
            # In-flight slots are keyed by digest: idempotent across the
            # resubmission of the same work and stable across failover.
            server.quotas.acquire(tenant, digest)
        try:
            node_id, record = server.submit_routed(path, body, digest, wait=wait)
        except (NoRouteError, FleetSaturated, ServiceError):
            if tenant is not None:
                server.quotas.release(digest)
            raise
        remote_digest = record.get("digest")
        if remote_digest != digest:
            if tenant is not None:
                server.quotas.release(digest)
            server.nodes.mark_suspect(
                node_id,
                f"digest mismatch (gateway {digest[:12]}..., "
                f"node {str(remote_digest)[:12]}...): registry skew",
            )
            raise HTTPError(
                502,
                f"node {node_id} canonicalized the job to a different digest; "
                "refusing the response (registry skew)",
            )
        rid = record.get("job_id")
        gid = f"{rid}@{node_id}"
        server.note_submission(node_id, rid, job_type, params, digest, deadline_s)
        state = record.get("state")
        if tenant is not None and state in _TERMINAL_STATES:
            server.quotas.release(digest)
        payload = {**record, "job_id": gid, "node": node_id}
        self.send_json(200 if state in _TERMINAL_STATES else 202, payload)

    # ------------------------------------------------------------------ #
    # Node operations
    # ------------------------------------------------------------------ #

    def register_node(self) -> None:
        body = parse_json_body(self.body)
        url = body.get("url")
        if not isinstance(url, str) or not url:
            raise HTTPError(400, 'missing or non-string "url" field')
        digest = body.get("registry_digest")
        if not isinstance(digest, str) or not digest:
            raise HTTPError(400, 'missing or non-string "registry_digest" field')
        node_id = body.get("node_id")
        if node_id is not None and not isinstance(node_id, str):
            raise HTTPError(400, '"node_id" must be a string when present')
        try:
            node = self.server.admit_node(url, digest, node_id=node_id)
        except RegistrySkewError:
            raise
        except ValueError as error:
            raise HTTPError(400, str(error)) from None
        self.send_json(
            200,
            {
                "node_id": node.node_id,
                "state": node.state,
                "registry_digest": self.server.registry_digest,
            },
        )

    def heartbeat(self, node_id: str) -> None:
        body = parse_json_body(self.body)
        depth = body.get("queue_depth", 0)
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise HTTPError(400, '"queue_depth" must be an integer')
        digest = body.get("registry_digest")
        if not isinstance(digest, str):
            raise HTTPError(400, 'missing or non-string "registry_digest" field')
        node = self.server.nodes.heartbeat(node_id, depth, digest)
        self.send_json(200, {"status": "ok", "state": node.state})

    def journal(self, node_id: str) -> None:
        body = parse_json_body(self.body)
        lines = body.get("lines")
        if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
            raise HTTPError(400, '"lines" must be a list of strings')
        if self.server.nodes.get(node_id) is None:
            raise UnknownNodeError(node_id)
        self.send_json(200, self.server.replicas.append_lines(node_id, lines))

    def deregister(self, node_id: str) -> None:
        self.send_json(200, self.server.remove_node(node_id).to_dict())

    routes = HTTPHandler.routes + (
        Route("GET", "/v1/gateway/nodes", list_nodes,
              "The node registry: ids, URLs, health states, queue depths."),
        Route("GET", "/v1/health", health,
              "Gateway liveness plus per-state node counts (`role: gateway`)."),
        Route("GET", "/v1/jobs", list_jobs,
              "Job listing merged over reachable nodes in node order, ids "
              "rewritten to gateway form; `offset`/`limit` window the merge."),
        Route("GET", "/v1/jobs/<id>", job,
              "Proxied job record (`?wait=` forwarded); answers from the "
              "replica journal, at once, when the node is gone."),
        Route("GET", "/v1/jobs/<id>/result", job_result,
              "Proxied result payload (409 while running or being failed over)."),
        Route("GET", "/v1/jobs/<id>/trace", job_trace,
              "Proxied span tree for the job's node-side trace."),
        Route("POST", "/v1/campaign", submit,
              "Canonicalize, route by digest, and proxy a campaign submission."),
        Route("POST", "/v1/compress", submit,
              "Canonicalize, route by digest, and proxy a compression job."),
        Route("POST", "/v1/jobs", submit,
              "Canonicalize, route by digest, and proxy a generic job submission."),
        Route("POST", "/v1/jobs/<id>/cancel", cancel_job,
              "Proxied cancel on the job's current node."),
        Route("POST", "/v1/nodes", register_node,
              "Node self-registration (`url`, `registry_digest`); 409 on "
              "registry skew."),
        Route("POST", "/v1/nodes/<id>/deregister", deregister,
              "Graceful goodbye; leftover unfinished jobs fail over."),
        Route("POST", "/v1/nodes/<id>/heartbeat", heartbeat,
              "Node heartbeat carrying queue depth and registry digest."),
        Route("POST", "/v1/nodes/<id>/journal", journal,
              "Ingest checksummed journal lines into the node's replica."),
    )


#: The gateway's route names — snapshotted by ``scripts/check_api_surface.py``
#: (``gateway_routes``) so the front-door surface is an explicit contract,
#: like the node's ``V1_ROUTES``.
GATEWAY_ROUTES = route_names(GatewayHandler.routes)


class GatewayServer(HTTPServerBase):
    """HTTP gateway owning the node registry, hash ring, and replica store."""

    def __init__(
        self,
        address: tuple[str, int],
        registry: ScenarioRegistry | None = None,
        quotas: TenantQuotas | None = None,
        state_dir: str | None = None,
        suspect_after: float = 3.0,
        dead_after: float = 10.0,
        ring_replicas: int = 64,
        node_timeout: float = 5.0,
        sweep_interval: float | None = None,
        verbose: bool = False,
    ):
        super().__init__(address, GatewayHandler, verbose)
        self.registry = registry if registry is not None else build_default_registry()
        self.registry_digest = compute_registry_digest(self.registry)
        self.nodes = NodeRegistry(
            self.registry_digest, suspect_after=suspect_after, dead_after=dead_after
        )
        self.quotas = quotas
        self.node_timeout = node_timeout
        self._tmpdir = None
        if state_dir is None:
            # Ephemeral gateways (tests, smoke runs) keep replicas in a
            # self-cleaning directory; production passes --state.
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-gateway-")
            state_dir = self._tmpdir.name
        self.replicas = ReplicaStore(state_dir)
        self._lock = threading.Lock()
        self._ring = HashRing(replicas=ring_replicas)
        self._clients: dict[str, ServiceClient] = {}
        #: Node ids admitted by :meth:`admit_static`: probed, not heartbeating.
        self._static: set[str] = set()
        #: Original gateway job id -> (node id, remote id) after failover.
        self._failover: dict[str, tuple[str, str]] = {}
        #: Gateway ids with a failover resubmission in flight right now.
        self._resurrecting: set[str] = set()
        self._stop = threading.Event()
        self._sweeper = threading.Thread(
            target=self._sweep_loop,
            args=(sweep_interval if sweep_interval else max(suspect_after / 4.0, 0.05),),
            name="gateway-sweeper",
            daemon=True,
        )
        self._sweeper.start()

    def close(self) -> None:
        self._stop.set()
        self.stop_listening()
        self._sweeper.join(timeout=5.0)
        self.replicas.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    # ------------------------------------------------------------------ #
    # Fleet membership
    # ------------------------------------------------------------------ #

    def admit_node(self, url: str, registry_digest: str, node_id: str | None = None):
        node = self.nodes.register(url, registry_digest, node_id=node_id)
        with self._lock:
            self._ring.add(node.node_id)
            # Drop any cached client: a re-registration may change the URL.
            self._clients.pop(node.node_id, None)
        return node

    def admit_static(self, url: str, client: ServiceClient):
        """Admit ``url`` as a static member: a node without a heartbeat agent.

        The registry digest comes from the node's ``GET /v1/health`` —
        :class:`ServiceError` when it does not answer,
        :class:`RegistrySkewError` when it differs.  From then on the
        sweeper's ``GET /v1/readyz`` probes stand in for heartbeats.
        ``client`` asks, and then carries every request the gateway sends
        the node, so the caller's retry and timeout policy applies to it.
        """
        node = self.admit_node(url, str(client.health().get("registry_digest") or ""))
        with self._lock:
            self._static.add(node.node_id)
            self._clients[node.node_id] = client
        return node

    def probe_static(self) -> None:
        """Probe every live static member's ``GET /v1/readyz`` once.

        An answer counts as a heartbeat (a suspect member is healthy again);
        a failure marks the member suspect with the probe error as the
        reason, and the registry's ``dead_after`` timeout takes it from
        there — exactly the heartbeat state machine, driven from this side.
        """
        with self._lock:
            static = sorted(self._static)
        for node_id in static:
            node = self.nodes.get(node_id)
            if node is None or node.state not in ("healthy", "suspect"):
                continue
            try:
                self.node_client(node_id).request("GET", "/v1/readyz")
            except ServiceError as error:
                self.nodes.mark_suspect(node_id, f"readyz probe failed: {error}")
                continue
            try:
                self.nodes.heartbeat(node_id, node.queue_depth, node.registry_digest)
            except UnknownNodeError:
                continue  # swept dead meanwhile; failover owns it now

    def remove_node(self, node_id: str):
        node = self.nodes.deregister(node_id)
        with self._lock:
            self._ring.remove(node_id)
        # A graceful drain finishes running jobs but requeues the rest into
        # a journal nobody will replay soon; fail them over now.
        self._failover_node(node_id)
        return node

    def node_client(self, node_id: str) -> ServiceClient | None:
        node = self.nodes.get(node_id)
        if node is None:
            return None
        with self._lock:
            client = self._clients.get(node_id)
            if client is None or client.base_url != node.url:
                client = ServiceClient(
                    node.url, timeout=self.node_timeout, retries=1, backoff=0.05
                )
                self._clients[node_id] = client
        return client

    def route_digest(self, digest: str, extra_exclude=()) -> str | None:
        """The healthy ring owner for ``digest`` (suspect/dead excluded)."""
        healthy = self.nodes.healthy_ids()
        with self._lock:
            exclude = (set(self._ring.members()) - healthy) | set(extra_exclude)
            return self._ring.route(digest, exclude=exclude)

    # ------------------------------------------------------------------ #
    # Canonicalization (must agree byte-for-byte with the nodes)
    # ------------------------------------------------------------------ #

    def canonicalize(self, path: str, body: dict):
        """-> ``(job_type, canonical_params, digest, deadline_s)``.

        ``path`` is the submission route (``/v1/jobs``, ``/v1/compress`` or
        ``/v1/campaign``).  Uses the node-shared canonicalizers, then merges
        the scenario's defaults exactly as ``WorkerPool.submit`` does, so the
        digest the gateway routes by equals the digest every (non-skewed)
        node will answer with.  Raises ``ValueError`` on anything malformed.
        """
        job_type, submission, deadline_s = canonicalize_submission(path, body, self.registry)
        declared = self.registry.get(job_type)  # ValueError on unknown types
        params = {**declared.defaults, **dict(submission)}
        return job_type, params, job_digest(job_type, params), deadline_s

    # ------------------------------------------------------------------ #
    # Routed proxying
    # ------------------------------------------------------------------ #

    def submit_routed(
        self, path: str, body: dict, digest: str, wait: float | None = None
    ) -> tuple[str, dict]:
        """POST ``body`` to the digest's ring owner, failing over candidates.

        An unreachable owner is marked suspect and the next ring candidate
        tried; a *saturated* owner (429 through the client's retries) is
        surfaced as :class:`FleetSaturated` instead — backpressure should
        slow the caller down, not scatter the digest's cache locality
        across the fleet.  ``wait`` is forwarded as ``?wait=``, the node
        client's timeout extended by it (:meth:`ServiceClient.wait_query`).
        """
        tried: set[str] = set()
        last_error = "no nodes registered"
        while True:
            target = self.route_digest(digest, extra_exclude=tried)
            if target is None:
                raise NoRouteError(last_error)
            client = self.node_client(target)
            if client is None:
                tried.add(target)
                continue
            query, timeout = client.wait_query(wait)
            try:
                record = client.request(
                    "POST", path + query, body,
                    on_retry=self._reconciler(client, digest),
                    timeout=timeout,
                )
            except ServiceUnavailable as error:
                if error.saturated:
                    raise FleetSaturated(target, str(error)) from None
                self.nodes.mark_suspect(target, str(error))
                tried.add(target)
                last_error = str(error)
                continue
            return target, record

    @staticmethod
    def _reconciler(client: ServiceClient, digest: str):
        """Reconcile-by-digest hook for proxied submits (see client.submit):
        a retry first asks whether the previous attempt already landed."""

        def reconcile() -> dict | None:
            try:
                listing = client.request("GET", f"/v1/jobs?digest={digest}")
            except ServiceError:
                return None
            for record in listing.get("jobs", []):
                if isinstance(record, dict) and record.get("state") != "cancelled":
                    return record
            return None

        return reconcile

    def note_submission(
        self,
        node_id: str,
        rid: str,
        job_type: str,
        params: dict,
        digest: str,
        deadline_s: float | None,
        gateway_id: str | None = None,
    ) -> None:
        """Write the gateway-authored replica submit line for a routed job.

        This is the failover safety net: even if the node is SIGKILLed
        before its journal shipper ever flushes, the gateway already holds
        a submit record for every job it routed there.
        """
        fields = {
            "job_id": rid,
            "type": job_type,
            "params": params,
            "digest": digest,
            "submitted_at": time.time(),
            "deadline_s": deadline_s,
        }
        if gateway_id is not None:
            fields["gateway_id"] = gateway_id
        self.replicas.record_submit(node_id, **fields)

    def lookup_target(self, gid: str) -> tuple[str | None, str | None]:
        """Resolve a gateway job id to its current ``(node id, remote id)``."""
        with self._lock:
            mapped = self._failover.get(gid)
        if mapped is not None:
            return mapped
        rid, sep, node_id = gid.rpartition("@")
        if not sep or not rid or not node_id:
            return None, None
        return node_id, rid

    def proxy_job_get(
        self, gid: str, suffix: str, wait: float | None = None
    ) -> tuple[int, dict]:
        """``GET /v1/jobs/<gid>[/result|/trace]`` -> (status, payload).

        Reachable nodes are proxied (``wait`` forwarded as in
        :meth:`submit_routed`) and ids rewritten; a dead (or unreachable) node's
        jobs answer synthetically from the replica journal until failover
        has re-homed them — the caller sees ``queued``, at once and never a
        5xx, so dispatcher poll loops ride straight through a node loss.
        """
        node_id, rid = self.lookup_target(gid)
        if node_id is None:
            return 404, {"error": f"no such job {gid!r} (not a gateway job id)"}
        node = self.nodes.get(node_id)
        if node is None:
            return 404, {"error": f"no such job {gid!r} (unknown node)"}
        if node.state != "dead":
            client = self.node_client(node_id)
            query, timeout = client.wait_query(wait)
            try:
                record = client.request(
                    "GET", f"/v1/jobs/{rid}{suffix}{query}", timeout=timeout
                )
            except ServiceRequestError as error:
                payload = error.payload if isinstance(error.payload, dict) else None
                payload = payload or {"error": str(error)}
                if payload.get("job_id") == rid:
                    payload = {**payload, "job_id": gid}
                return error.status, payload
            except ServiceUnavailable as error:
                self.nodes.mark_suspect(node_id, str(error))
            else:
                if record.get("job_id") == rid:
                    record = {**record, "job_id": gid, "node": node_id}
                if self.quotas is not None and record.get("state") in _TERMINAL_STATES:
                    digest = record.get("digest")
                    if isinstance(digest, str):
                        self.quotas.release(digest)
                return 200, record
        return self._synthetic_job_get(gid, node_id, rid, suffix)

    def _synthetic_job_get(
        self, gid: str, node_id: str, rid: str, suffix: str
    ) -> tuple[int, dict]:
        """Answer for a job on an unreachable node, resurrecting if needed."""
        view = self.replicas.job_view(node_id, rid)
        finish = (view or {}).get("finish")
        if isinstance(finish, dict) and finish.get("event") in ("failed", "cancelled"):
            record = {
                "job_id": gid,
                "state": finish["event"],
                "digest": finish.get("digest"),
                "error": finish.get("error"),
            }
            if self.quotas is not None and isinstance(record["digest"], str):
                self.quotas.release(record["digest"])
            return 200, record
        submit = (view or {}).get("submit")
        if isinstance(submit, dict):
            node = self.nodes.get(node_id)
            if node is None or node.state in ("dead", "left"):
                # Unfinished — or finished "done" with the result marooned
                # on the dead node — either way the job must run again on a
                # survivor.
                outcome = self.resurrect(gid, submit)
                if outcome != "already_finished":
                    _FAILOVER.inc(outcome=outcome)
            # A merely *suspect* node (one failed poll) keeps its in-flight
            # work: answer queued without resubmitting and let the
            # sweeper's dead transition drive failover, as the registry
            # contract promises.
            queued = {"job_id": gid, "state": "queued", "digest": submit.get("digest")}
            if suffix == "/result":
                return 409, {**queued, "error": "job not finished"}
            if suffix == "/trace":
                return 200, {"job_id": gid, "trace_id": None, "state": "queued",
                             "span_count": 0, "trace": []}
            return 200, queued
        return 404, {"error": f"no such job {gid!r}"}

    def proxy_cancel(self, gid: str) -> tuple[int, dict]:
        node_id, rid = self.lookup_target(gid)
        if node_id is None or self.nodes.get(node_id) is None:
            return 404, {"error": f"no such job {gid!r}"}
        client = self.node_client(node_id)
        try:
            record = client.request("POST", f"/v1/jobs/{rid}/cancel", {})
        except ServiceRequestError as error:
            payload = error.payload if isinstance(error.payload, dict) else None
            return error.status, payload or {"error": str(error)}
        if record.get("job_id") == rid:
            record = {**record, "job_id": gid}
        if self.quotas is not None and record.get("state") in _TERMINAL_STATES:
            digest = record.get("digest")
            if isinstance(digest, str):
                self.quotas.release(digest)
        return 200, record

    def list_jobs(self, query: dict[str, list[str]]) -> dict:
        """``GET /v1/jobs`` merged over reachable nodes, ids rewritten.

        The ``digest``/``state`` filters are forwarded to each node (this is
        what makes a client's reconcile-by-digest work through the
        gateway); ``offset``/``limit`` are validated here and window the
        merged listing, in node order.  A node's own 4xx (e.g. an invalid
        ``state``) is the caller's error and propagates; an unreachable
        node is skipped.
        """
        offset = parse_non_negative_int(query, "offset", 0)
        limit = parse_non_negative_int(query, "limit", None)
        filters = urlencode(
            {key: values for key, values in query.items() if key not in ("offset", "limit")},
            doseq=True,
        )
        path = f"/v1/jobs?{filters}" if filters else "/v1/jobs"
        jobs: list[dict] = []
        for node in self.nodes.nodes():
            if node.state not in ("healthy", "suspect"):
                continue
            client = self.node_client(node.node_id)
            try:
                listing = client.request("GET", path)
            except ServiceUnavailable:
                continue
            for record in listing.get("jobs", []):
                if isinstance(record, dict) and isinstance(record.get("job_id"), str):
                    record = {
                        **record,
                        "job_id": f"{record['job_id']}@{node.node_id}",
                        "node": node.node_id,
                    }
                jobs.append(record)
        window = jobs[offset:] if limit is None else jobs[offset:offset + limit]
        return {"jobs": window, "total": len(jobs), "offset": offset, "limit": limit}

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def _sweep_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            self.probe_static()
            for node, _old, new_state in self.nodes.sweep():
                if new_state == "dead":
                    self._failover_node(node.node_id)

    def _failover_node(self, node_id: str) -> dict:
        """Replay a lost node's unfinished replica jobs onto survivors."""
        with obs_trace.span("gateway.failover", attrs={"node": node_id}) as span:
            # Chained failover: mappings that re-homed earlier jobs *onto*
            # this node are stale now — drop them so resurrect() re-homes
            # those gids again instead of skipping them as already handled.
            with self._lock:
                stale = [
                    gid
                    for gid, (target, _rid) in self._failover.items()
                    if target == node_id
                ]
                for gid in stale:
                    del self._failover[gid]
            # Nothing routes to the node now; a node that comes back
            # reopens its replica on its next write.
            self.replicas.close(node_id)
            unfinished = self.replicas.unfinished(node_id)
            outcomes = {"replayed": 0, "already_finished": 0, "failed": 0}
            for record in unfinished:
                rid = record.get("job_id")
                if not isinstance(rid, str):
                    continue
                gid = record.get("gateway_id")
                if not isinstance(gid, str):
                    gid = f"{rid}@{node_id}"
                outcome = self.resurrect(gid, record)
                outcomes[outcome] += 1
                _FAILOVER.inc(outcome=outcome)
            span.set_attr("unfinished", len(unfinished))
            span.set_attr("outcomes", dict(outcomes))
        return outcomes

    def resurrect(self, gid: str, submit_record: dict) -> str:
        """Re-home one lost job onto a ring survivor; returns the outcome.

        Idempotent and race-safe: a gid being re-homed by a concurrent
        poll/sweeper is skipped, as is one already mapped to a *live*
        replacement — eager sweep failover and lazy poll-driven
        resurrection never double-submit.  A mapping whose target node has
        itself died (or left) is stale, though: chained failover drops it
        and re-homes the job again instead of wedging every poll on the
        dead replacement.
        """
        while True:
            with self._lock:
                if gid in self._resurrecting:
                    return "already_finished"
                mapped = self._failover.get(gid)
                if mapped is None:
                    self._resurrecting.add(gid)
                    break
            # Node state is read outside self._lock (the registry has its
            # own lock); loop to re-claim once the stale mapping is gone.
            node = self.nodes.get(mapped[0])
            if node is not None and node.state not in ("dead", "left"):
                return "already_finished"
            with self._lock:
                if self._failover.get(gid) == mapped:
                    del self._failover[gid]
        try:
            job_type = submit_record.get("type")
            params = submit_record.get("params")
            digest = submit_record.get("digest")
            if not (
                isinstance(job_type, str)
                and isinstance(params, dict)
                and isinstance(digest, str)
            ):
                return "failed"
            body: dict = {"type": job_type, "params": params}
            deadline = submit_record.get("deadline_s")
            if (
                isinstance(deadline, (int, float))
                and not isinstance(deadline, bool)
                and deadline > 0
            ):
                # Re-armed with its full budget: the old wall clock died
                # with the node (same rule as journal replay on restart).
                body["deadline_s"] = float(deadline)
            try:
                target, record = self.submit_routed("/v1/jobs", body, digest)
            except (NoRouteError, FleetSaturated, ServiceError):
                return "failed"
            rid = record.get("job_id")
            if not isinstance(rid, str):
                return "failed"
            self.note_submission(
                target, rid, job_type, params, digest,
                body.get("deadline_s"), gateway_id=gid,
            )
            with self._lock:
                self._failover[gid] = (target, rid)
            return "replayed"
        finally:
            with self._lock:
                self._resurrecting.discard(gid)


def create_gateway(
    host: str = "127.0.0.1",
    port: int = 8100,
    state_dir: str | None = None,
    keys_file: str | None = None,
    registry: ScenarioRegistry | None = None,
    suspect_after: float = 3.0,
    dead_after: float = 10.0,
    node_timeout: float = 5.0,
    sweep_interval: float | None = None,
    verbose: bool = False,
) -> GatewayServer:
    """Build a ready-to-serve :class:`GatewayServer` (``port=0`` -> ephemeral).

    ``keys_file`` enables per-tenant authentication and quotas (see
    :mod:`repro.gateway.quotas` for the format); without it the gateway is
    open and all traffic is metered under the ``anonymous`` tenant label.
    ``state_dir`` holds the per-node replica journals; omitted, an ephemeral
    directory is used (fine for tests, wrong for durable failover across
    gateway restarts).
    """
    from .quotas import load_keys_file

    quotas = load_keys_file(keys_file) if keys_file is not None else None
    return GatewayServer(
        (host, port),
        registry=registry,
        quotas=quotas,
        state_dir=state_dir,
        suspect_after=suspect_after,
        dead_after=dead_after,
        node_timeout=node_timeout,
        sweep_interval=sweep_interval,
        verbose=verbose,
    )
