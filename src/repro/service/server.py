"""The node's HTTP/JSON API over the worker pool.

A thin subclass of the shared HTTP layer (:mod:`repro.service.http`): the
node declares its route table and the handlers behind it; the envelope,
metrics, spans and probes live in the base.  The generated
``docs/http-api.md`` is the route reference.

``POST /v1/jobs``, ``/v1/compress`` and ``/v1/campaign`` validate their
bodies before submission (typos are a 400, not a failed job), and
``?wait=<seconds>`` blocks (bounded) until the job finishes and then includes
the result — handy for synchronous clients.  ``GET /v1/jobs/<id>?wait=`` does
the same for a job already submitted, so a client waits for completion on the
server instead of polling.  A saturated queue is a 429 with ``Retry-After``.
"""

from __future__ import annotations

import time

from ..core.cache import ResultCache
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from ..obs.trace import TraceLog
from .http import (
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
from .jobs import JobState
from .journal import JobJournal
from .registry import ScenarioRegistry, build_default_registry, compute_registry_digest
from .workers import QueueFullError, WorkerPool

__all__ = [
    "API_VERSION",
    "NodeHandler",
    "ReproServer",
    "V1_ROUTES",
    "canonicalize_campaign",
    "canonicalize_compress",
    "canonicalize_job",
    "canonicalize_submission",
    "create_server",
]

_OBS = get_metrics()
_HTTP_REQUESTS = _OBS.get("repro_http_requests_total")
_HTTP_SECONDS = _OBS.get("repro_http_request_seconds")


def _parse_deadline(body: dict) -> float | None:
    """Validate an optional ``deadline_s`` submission field (seconds > 0)."""
    value = body.get("deadline_s")
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > 0:
        raise ValueError('"deadline_s" must be a positive number of seconds')
    return float(value)


def canonicalize_job(body: dict) -> tuple[str, dict, float | None]:
    """Validate one ``POST /v1/jobs`` body -> ``(job_type, params, deadline_s)``.

    Shared by the node's submit route and the gateway front door.  The job
    type itself is checked (and its defaults merged) by whoever submits.
    Raises ``ValueError`` on anything malformed.
    """
    job_type = body.get("type")
    if not isinstance(job_type, str):
        raise ValueError('missing or non-string "type" field')
    params = body.get("params")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ValueError('"params" must be a JSON object')
    unknown = set(body) - {"type", "params", "deadline_s"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)}")
    return job_type, params, _parse_deadline(body)


def canonicalize_compress(body: dict) -> tuple[dict, float | None]:
    """Validate one ``POST /v1/compress`` body -> ``(submission, deadline_s)``.

    The codec name, its parameters, and any pipeline stage list are validated
    against the codec registry, and the *canonicalized* forms (defaults
    merged in) are returned, so a sparse body, a spelled-out one, and a
    campaign ``codec:`` cell of the same work all land on one content digest.
    Shared by the service's compress route and the gateway front door (which
    must compute the digest *before* choosing a node).  Raises ``ValueError``
    on anything malformed.
    """
    from .. import codecs

    allowed = {"codec", "params", "stages", "deadline_s", *codecs.TENSOR_SOURCE_PARAMS}
    deadline_s = _parse_deadline(body)
    body = {key: value for key, value in body.items() if key != "deadline_s"}
    unknown = set(body) - allowed
    if unknown:
        raise ValueError(f"unknown compress field(s) {sorted(unknown)}")
    stages = body.get("stages")
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise ValueError('"params" must be a JSON object')
    codec = body.get("codec")
    if stages is not None:
        if params:
            raise ValueError(
                '"stages" implies the pipeline codec; move "params" into '
                "the stage objects"
            )
        if codec not in (None, "pipeline"):
            raise ValueError(
                '"stages" implies the pipeline codec; drop the "codec" field'
            )
        codec, stages = "pipeline", codecs.validate_stages(stages)
    else:
        if not isinstance(codec, str) or not codec:
            raise ValueError(
                'missing or non-string "codec" field (GET /v1/codecs lists them)'
            )
        declared = codecs.get_codec(codec)
        # A tensor-source key that is also a codec parameter (e.g.
        # noisyquant's "seed") feeds both, matching campaign codec: grids —
        # one value drives the synthetic tensor and the codec alike.  An
        # explicit entry in "params" still wins.
        shared = {
            key: body[key]
            for key in codecs.TENSOR_SOURCE_PARAMS
            if key in body and key in declared.defaults and key not in params
        }
        params = declared.validate_params({**shared, **params})

    submission: dict = {"codec": codec, "params": params, "stages": stages}
    for key in codecs.TENSOR_SOURCE_PARAMS:
        if key in body:
            submission[key] = body[key]
    return submission, deadline_s


def canonicalize_campaign(body: dict, registry: ScenarioRegistry) -> tuple[dict, float | None]:
    """Validate one ``POST /v1/campaign`` body -> ``(params, deadline_s)``.

    The body is either the spec itself or ``{"spec": ..., "jobs": N}``;
    validation (including expansion against ``registry``, which catches
    unknown scenarios and parameter typos) runs here so malformed specs fail
    the request, not the job.  Shared by the service's campaign route and the
    gateway front door.  Raises ``ValueError`` on anything malformed.
    """
    from ..campaign import CampaignSpecError, expand_spec, parse_spec

    deadline_s = None
    if "spec" in body:
        spec, jobs = body.get("spec"), body.get("jobs", 1)
        unknown = set(body) - {"spec", "jobs", "deadline_s"}
        if unknown:
            raise ValueError(f"unknown campaign field(s) {sorted(unknown)}")
        deadline_s = _parse_deadline(body)
    else:
        spec, jobs = body, 1
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError('"jobs" must be a positive integer')
    try:
        expand_spec(parse_spec(spec), registry=registry)
    except CampaignSpecError as error:
        raise ValueError(f"invalid campaign spec: {error}") from None
    return {"spec": spec, "jobs": jobs}, deadline_s


def canonicalize_submission(
    path: str, body: dict, registry: ScenarioRegistry
) -> tuple[str, dict, float | None]:
    """Validate the body of a submission route -> ``(job_type, params, deadline_s)``.

    ``path`` is the matched route pattern (``/v1/jobs``, ``/v1/compress`` or
    ``/v1/campaign``); the node and the gateway both submit through here, so
    they agree on every job's canonical form.
    """
    if path == "/v1/compress":
        submission, deadline_s = canonicalize_compress(body)
        return "codec_compress", submission, deadline_s
    if path == "/v1/campaign":
        params, deadline_s = canonicalize_campaign(body, registry)
        return "campaign", params, deadline_s
    return canonicalize_job(body)


class NodeHandler(HTTPHandler):
    server: "ReproServer"
    server_version = "repro-service/1.0"
    chaos_point = "server.request"

    def record_request(self, route: str, status: int, seconds: float) -> None:
        _HTTP_SECONDS.observe(seconds, route=route)
        _HTTP_REQUESTS.inc(method=self.command, route=route, status=str(status))

    def error_response(self, error: Exception):
        if isinstance(error, QueueFullError):
            payload = {
                "error": str(error),
                "max_queued": error.limit,
                "retry_after": error.retry_after,
            }
            return 429, payload, retry_after_header(error.retry_after)
        return None

    def not_ready_reason(self) -> str | None:
        return None if self.server.ready else "replaying journal"

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def health(self) -> None:
        self.send_json(
            200,
            {
                "status": "ok",
                "api_version": API_VERSION,
                "uptime_seconds": time.time() - self.server.started_at,
                "scenarios": len(self.server.registry),
                "registry_digest": self.server.registry_digest,
                "journal": self.server.journal is not None,
                "pool": self.server.pool.stats(),
            },
        )

    def cache_stats(self) -> None:
        self.send_json(200, self.server.pool.cache.stats())

    def _job(self, job_id: str):
        job = self.server.pool.store.get(job_id)
        if job is None:
            raise HTTPError(404, f"no such job {job_id!r}")
        return job

    def job(self, job_id: str) -> None:
        """One job's record; ``?wait=`` blocks like a waited submit.

        A waited request answers as soon as the job finishes (or the wait
        runs out) and carries the result when the job is done, so a client
        learns of completion and fetches the payload in one request.
        """
        wait_seconds = parse_wait(self.query)
        job = self._job(job_id)
        if wait_seconds is None:
            self.send_json(200, job.to_dict())
            return
        job.wait(wait_seconds)
        self.send_json(200, job.to_dict(include_result=job.state is JobState.DONE))

    def job_result(self, job_id: str) -> None:
        job = self._job(job_id)
        if not job.state.finished:
            # The envelope's "error" must win over the job record's (None)
            # error field, so it is merged last.
            self.send_json(409, {**job.to_dict(), "error": "job not finished"})
        else:
            self.send_json(200, job.to_dict(include_result=True))

    def job_trace(self, job_id: str) -> None:
        """The job's span tree, best-effort.

        Spans come from the in-memory ring buffer, so a very old job may
        answer with an empty tree — the trace id is still returned so the
        caller can grep the JSONL trace log.
        """
        job = self._job(job_id)
        spans = (
            self.server.recorder.buffer.spans_for_trace(job.trace_id)
            if job.trace_id
            else []
        )
        self.send_json(
            200,
            {
                "job_id": job.job_id,
                "trace_id": job.trace_id,
                "state": job.state.value,
                "span_count": len(spans),
                "trace": obs_trace.build_span_tree(spans),
            },
        )

    def submit(self) -> None:
        """Validate, enqueue, and optionally wait for one submission."""
        wait_seconds = parse_wait(self.query)
        body = parse_json_body(self.body)
        pool = self.server.pool
        try:
            job_type, params, deadline_s = canonicalize_submission(
                self.route.pattern, body, pool.registry
            )
            job = pool.submit(job_type, params, deadline_s=deadline_s)
        except ValueError as error:
            raise HTTPError(400, str(error)) from None
        if wait_seconds is not None:
            job.wait(wait_seconds)
        status = 200 if job.state.finished else 202
        self.send_json(status, job.to_dict(include_result=job.state is JobState.DONE))

    def cancel_job(self, job_id: str) -> None:
        job = self.server.pool.cancel(job_id)
        if job is None:
            self.send_json(404, {"error": f"no such job {job_id!r}"})
        elif job.state is JobState.CANCELLED:
            self.send_json(200, job.to_dict())
        else:
            self.send_json(
                409,
                {
                    **job.to_dict(),
                    "error": f"job {job_id!r} could not be cancelled "
                    f"(state: {job.state.value}; a job is cancellable only "
                    "until a worker picks it up)",
                },
            )

    def list_jobs(self) -> None:
        """``GET /v1/jobs`` with optional ``state``/``digest``/``offset``/``limit``.

        ``digest=`` filters to the jobs with that exact content digest — the
        reconcile hook for a client whose submit timed out after the server
        accepted it (and the gateway's cross-node job lookup).
        """
        query = self.query
        state: JobState | None = None
        if "state" in query:
            try:
                state = JobState(query["state"][0])
            except ValueError:
                choices = sorted(s.value for s in JobState)
                raise HTTPError(
                    400, f'invalid "state" {query["state"][0]!r}; one of {choices}'
                ) from None
        offset = parse_non_negative_int(query, "offset", 0)
        limit = parse_non_negative_int(query, "limit", None)
        jobs = self.server.pool.store.jobs(state=state)
        if "digest" in query:
            digest = query["digest"][0]
            jobs = [job for job in jobs if job.digest == digest]
        window = jobs[offset:] if limit is None else jobs[offset:offset + limit]
        self.send_json(
            200,
            {
                "jobs": [job.to_dict() for job in window],
                "total": len(jobs),
                "offset": offset,
                "limit": limit,
            },
        )

    def _warehouse_connection(self):
        """Open the configured warehouse read-only, or fail with an envelope.

        A fresh connection per request: :mod:`sqlite3` connections are not
        shareable across handler threads, and read-only open is cheap.  No
        warehouse configured (or none ingested yet) answers 503 — the server
        is fine, the analytics backend just is not there.
        """
        from .. import warehouse

        path = self.server.warehouse_path
        if path is None:
            raise HTTPError(
                503, "no warehouse configured; start the server with --warehouse PATH"
            )
        try:
            return warehouse.connect_readonly(path)
        except FileNotFoundError:
            raise HTTPError(
                503,
                f"warehouse database {path} does not exist yet; "
                "run `repro warehouse ingest` first",
            ) from None
        except warehouse.SchemaError as error:
            raise HTTPError(500, str(error)) from None

    def list_results(self) -> None:
        """``GET /v1/results``: filtered warehouse rows, paginated like /v1/jobs.

        Query parameters: repeatable ``where=NAME OP VALUE`` filters,
        ``sort``/``order`` (``asc``/``desc``), ``offset``/``limit``, and an
        optional comma-separated ``columns`` restriction.  Bad parameters
        answer 400 with the standard error envelope.
        """
        from .. import warehouse

        query = self.query
        unknown = set(query) - {"where", "sort", "order", "offset", "limit", "columns"}
        if unknown:
            raise HTTPError(400, f"unknown query parameter(s) {sorted(unknown)}")
        order = query.get("order", ["asc"])[0]
        if order not in ("asc", "desc"):
            raise HTTPError(400, f'invalid "order" {order!r}; one of ["asc", "desc"]')
        offset = parse_non_negative_int(query, "offset", 0)
        limit = parse_non_negative_int(query, "limit", None)
        columns = None
        if "columns" in query:
            columns = [c.strip() for c in query["columns"][0].split(",") if c.strip()]
            if not columns:
                raise HTTPError(400, '"columns" must name at least one column')
        try:
            filters = warehouse.parse_filters(query.get("where", []))
        except warehouse.QueryError as error:
            raise HTTPError(400, str(error)) from None
        conn = self._warehouse_connection()
        try:
            rows, total = warehouse.query_cells(
                conn,
                filters,
                sort=query.get("sort", [None])[0],
                descending=order == "desc",
                offset=offset,
                limit=limit,
                columns=columns,
            )
        except warehouse.QueryError as error:
            raise HTTPError(400, str(error)) from None
        finally:
            conn.close()
        self.send_json(
            200, {"results": rows, "total": total, "offset": offset, "limit": limit}
        )

    def result_detail(self, digest: str) -> None:
        """``GET /v1/results/<digest>``: one cell's full warehouse record."""
        from .. import warehouse

        conn = self._warehouse_connection()
        try:
            record = warehouse.cell_detail(conn, digest)
        finally:
            conn.close()
        if record is None:
            self.send_json(404, {"error": f"no such result {digest!r}"})
        else:
            self.send_json(200, record)

    routes = HTTPHandler.routes + (
        Route("GET", "/v1/cache/stats", cache_stats,
              "Result-cache occupancy and hit/miss counters."),
        Route("GET", "/v1/health", health,
              "Liveness, uptime, scenario count, worker-pool stats."),
        Route("GET", "/v1/jobs", list_jobs,
              "List jobs; `state`, `digest`, `offset`, `limit` query params."),
        Route("GET", "/v1/jobs/<id>", job,
              "One job's record (state, timings, provenance digest); "
              "`?wait=<s>` blocks until it finishes, then includes the result."),
        Route("GET", "/v1/jobs/<id>/result", job_result,
              "The finished job's result payload (409 while running)."),
        Route("GET", "/v1/jobs/<id>/trace", job_trace,
              "The job's span tree from the trace ring buffer."),
        Route("GET", "/v1/results", list_results,
              "Query the results warehouse; see "
              "[docs/query-cookbook.md](query-cookbook.md)."),
        Route("GET", "/v1/results/<digest>", result_detail,
              "One warehoused cell: params, result payload, metric leaves."),
        Route("POST", "/v1/campaign", submit,
              "Submit a whole campaign spec as one job."),
        Route("POST", "/v1/compress", submit,
              "One-shot codec compression of a synthetic matrix."),
        Route("POST", "/v1/jobs", submit,
              "Submit a job (`type`, `params`, optional `deadline_s`)."),
        Route("POST", "/v1/jobs/<id>/cancel", cancel_job,
              "Cancel a job that no worker has picked up yet."),
    )


#: The node's versioned route names — the public API surface contract,
#: snapshotted by ``scripts/check_api_surface.py``.
V1_ROUTES = route_names(NodeHandler.routes)


class ReproServer(HTTPServerBase):
    """HTTP server owning the registry, cache, worker pool, and journal."""

    def __init__(
        self,
        address: tuple[str, int],
        registry: ScenarioRegistry,
        cache: ResultCache,
        max_workers: int = 2,
        verbose: bool = False,
        max_queued: int | None = None,
        journal: JobJournal | None = None,
        trace_log: TraceLog | None = None,
        warehouse_path: str | None = None,
    ):
        # The pool first: a bad pool size fails before the socket is bound.
        self.pool = WorkerPool(
            registry,
            cache=cache,
            max_workers=max_workers,
            max_queued=max_queued,
            journal=journal,
            trace_log=trace_log,
        )
        super().__init__(address, NodeHandler, verbose)
        self.registry = registry
        #: What a gateway admits this node by (``GET /v1/health``).
        self.registry_digest = compute_registry_digest(registry)
        self.journal = journal
        #: Readiness state surfaced by ``GET /v1/readyz``: not ready until
        #: journal replay finished.
        self.ready = False
        #: Where ``GET /v1/results`` reads from (read-only); ``None`` -> 503.
        self.warehouse_path = warehouse_path
        # Spans already flow to the process-wide in-memory ring; a trace log
        # additionally persists the spans this server's handlers and workers
        # start as JSONL next to the journal.
        self.recorder = obs_trace.get_recorder()
        self.trace_log = trace_log
        self.replay_stats: dict | None = None
        if journal is not None:
            self.replay_stats = journal.replay(self.pool)
        self.ready = True

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        ``wait=False`` abandons in-flight jobs instead of draining them
        (the CLI uses this so Ctrl-C exits promptly).
        """
        self.stop_listening()
        self.pool.shutdown(wait=wait)
        if self.journal is not None:
            self.journal.close()
        if self.trace_log is not None:
            self.trace_log.close()

    def graceful_close(self) -> dict:
        """SIGTERM path: drain what is running, requeue-by-journal the rest.

        Stops accepting new connections, lets already-running jobs finish,
        cancels still-queued futures (those jobs stay QUEUED — with a journal
        attached their submit lines carry no finish line, so the next start
        re-enqueues them), then flushes and closes the journal and trace log.
        Returns ``{"inflight": ..., "drained": ..., "requeued": ...}`` so the
        CLI can report what happened to in-flight work.
        """
        self.draining = True
        with self.pool._lock:
            inflight = len(self.pool._inflight)
        self.stop_listening()
        self.pool.shutdown(wait=True, cancel_pending=True)
        counts = self.pool.store.counts()
        requeued = counts.get("queued", 0) + counts.get("running", 0)
        if self.journal is not None:
            self.journal.close()
        if self.trace_log is not None:
            self.trace_log.close()
        return {
            "inflight": inflight,
            "drained": max(inflight - requeued, 0),
            "requeued": requeued,
            "journaled": self.journal is not None,
        }


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    registry: ScenarioRegistry | None = None,
    cache: ResultCache | None = None,
    max_workers: int = 2,
    cache_size: int = 256,
    cache_dir: str | None = None,
    verbose: bool = False,
    max_queued: int | None = None,
    journal_dir: str | None = None,
    warehouse_path: str | None = None,
) -> ReproServer:
    """Build a ready-to-serve :class:`ReproServer` (``port=0`` -> ephemeral).

    Jobs run on ``max_workers`` threads.  More cores come from more nodes:
    ``repro serve --register`` behind ``repro gateway``.  A bad pool size
    (``max_workers`` or ``max_queued`` below 1) is a ``ValueError``.

    ``journal_dir`` makes the service durable: jobs are journaled to
    ``<journal_dir>/journal.jsonl`` and replayed on startup, and — unless an
    explicit ``cache``/``cache_dir`` says otherwise — cached results persist
    under ``<journal_dir>/cache`` so replayed jobs keep their payloads.
    Finished trace spans are appended to ``<journal_dir>/trace.jsonl``
    alongside it.

    ``warehouse_path`` points ``GET /v1/results`` at a results warehouse
    (read-only); with a journal but no explicit path it defaults to
    ``<journal_dir>/warehouse.sqlite``, so ``repro warehouse ingest`` into a
    node's journal directory is immediately queryable from that node.
    """
    if registry is None:
        registry = build_default_registry()
    journal = JobJournal(journal_dir) if journal_dir is not None else None
    trace_log = (
        TraceLog(journal.directory / "trace.jsonl") if journal is not None else None
    )
    if cache is None:
        if cache_dir is None and journal is not None:
            cache_dir = str(journal.directory / "cache")
        cache = ResultCache(max_entries=cache_size, directory=cache_dir)
    if warehouse_path is None and journal is not None:
        warehouse_path = str(journal.directory / "warehouse.sqlite")
    return ReproServer(
        (host, port),
        registry,
        cache,
        max_workers=max_workers,
        verbose=verbose,
        max_queued=max_queued,
        journal=journal,
        trace_log=trace_log,
        warehouse_path=warehouse_path,
    )
