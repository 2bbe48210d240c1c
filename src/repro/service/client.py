"""Stdlib HTTP client for the repro service, with retries and typed errors.

A thin, dependency-free wrapper over :mod:`http.client` that turns the
service's JSON API into Python calls and its failure modes into a small
exception taxonomy:

* :class:`ServiceRequestError` — the service answered with a non-retryable
  4xx (bad submission, unknown job, cancel conflict); carries the status and
  the decoded JSON error payload.
* :class:`ServiceUnavailable` — the node could not be reached (connection
  refused/reset, timeout), kept answering 5xx, or stayed saturated (429)
  through every retry.  Transient failures are retried with exponential
  backoff before this is raised, so one dropped packet does not kill a
  campaign dispatch.  A 429/503 carrying a ``Retry-After`` hint (header or
  ``retry_after`` body field) overrides the backoff for the next attempt —
  the server knows its own queue better than a blind exponential does.
* :class:`CircuitBreakerOpen` — a :class:`ServiceUnavailable` raised without
  touching the network: this client's circuit breaker is open after too many
  consecutive failures, and calls fail fast until the reset timeout lets a
  half-open probe through.
* :class:`JobFailedError` — raised only by the synchronous conveniences
  (:meth:`ServiceClient.run_job`) when the remote job itself failed; carries
  the job record with the remote traceback.

Requests ride a keep-alive connection, one per client and thread (the
gateway shares one client per node across its handler threads).  A server
may close an idle connection at any time.  Before a kept connection is
reused, the client checks whether the server has already closed it; if so it
opens a fresh one, and nothing was sent on the old one.  If the server closes
it in the moment between that check and the request (no response byte
arrives), a ``GET`` is re-sent once on a fresh connection; that re-send is
neither a retry nor a breaker failure.  A ``POST`` is never re-sent this way:
the server may have acted on it before the connection dropped, so it takes
the retry, breaker and reconcile path below, as does every failure on a fresh
connection or after response bytes (a truncated body).

The campaign dispatcher (:mod:`repro.campaign.dispatch`) is built entirely on
this client; ``examples/service_client.py`` shows interactive use.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
import urllib.parse
from typing import Any, Callable

from ..chaos.plan import maybe_fail
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics

__all__ = [
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "JobFailedError",
    "ServiceClient",
    "ServiceError",
    "ServiceRequestError",
    "ServiceUnavailable",
]


class ServiceError(RuntimeError):
    """Base class for everything this client raises."""


class ServiceRequestError(ServiceError):
    """The service rejected the request (non-retryable 4xx)."""

    def __init__(self, status: int, payload: dict | None, url: str):
        self.status = status
        self.payload = payload or {}
        self.url = url
        message = self.payload.get("error", f"HTTP {status}")
        super().__init__(f"{url}: {message} (HTTP {status})")


class ServiceUnavailable(ServiceError):
    """The node stayed unreachable/saturated through every retry.

    ``saturated`` distinguishes a full queue (every attempt answered 429 —
    the node is alive, just busy) from a node that cannot be reached at all;
    callers like the campaign dispatcher back off instead of failing over.
    """

    def __init__(self, url: str, attempts: int, cause: str, saturated: bool = False):
        self.url = url
        self.attempts = attempts
        self.saturated = saturated
        super().__init__(f"{url}: unreachable after {attempts} attempt(s): {cause}")


class CircuitBreakerOpen(ServiceUnavailable):
    """Fail-fast: the breaker is open, no request was attempted.

    Subclasses :class:`ServiceUnavailable` so existing callers (the
    gateway's node-loss handling above all) treat a breaker-protected node
    exactly like an unreachable one — without paying connection timeouts to
    find out again.
    """

    def __init__(self, url: str, retry_in: float):
        self.retry_in = retry_in
        super().__init__(
            url, 0, f"circuit breaker open (half-open probe in {retry_in:.1f}s)"
        )


class JobFailedError(ServiceError):
    """A synchronously awaited remote job finished FAILED."""

    def __init__(self, job: dict):
        self.job = job
        error = (job.get("error") or "unknown error").strip().splitlines()[-1]
        super().__init__(f"job {job.get('job_id')!r} failed: {error}")


#: Longest server-side block of one ``GET /v1/jobs/<id>?wait=`` in
#: :meth:`ServiceClient.run_job`; a job that runs longer costs one request
#: per this many seconds.
_JOB_WAIT_SECONDS = 10.0

#: HTTP statuses worth retrying: saturation and transient upstream errors.
_RETRYABLE_STATUSES = frozenset({429, 502, 503, 504})

_RETRIES_TOTAL = get_metrics().get("repro_client_retries_total")
_BREAKER_TRANSITIONS = get_metrics().get("repro_breaker_transitions_total")
_RECONCILES_TOTAL = get_metrics().get("repro_client_reconciliations_total")
_CONNECTIONS_TOTAL = get_metrics().get("repro_client_connections_total")


class _HTTPConnection(http.client.HTTPConnection):
    """A kept connection, closed when dropped: its thread or client is gone."""

    def __del__(self) -> None:
        self.close()


class _HTTPSConnection(http.client.HTTPSConnection):
    __del__ = _HTTPConnection.__del__


#: What a reused connection raises when the server closed it as the request
#: went out: a reset or broken pipe on send, or ``RemoteDisconnected`` (a
#: ``ConnectionResetError``) when the status line never arrives.
_STALE_ERRORS = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)

#: Methods re-sent at once when a reused connection drops them: the server
#: acts on none of them, so a second copy is harmless.
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})


def _closed_by_server(sock: socket.socket) -> bool:
    """Whether an idle kept connection has something to read.

    An idle HTTP/1.1 connection is owed nothing, so anything readable is
    the server's end-of-file (or reset): the connection is unusable.
    """
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _retry_reason(cause: str) -> str:
    """Collapse a retry cause onto a small, fixed label set."""
    if cause == "HTTP 429":
        return "http_429"
    if cause.startswith("HTTP 5"):
        return "http_5xx"
    if cause.startswith("non-JSON response"):
        return "bad_json"
    return "network"


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    Closed is the happy path.  ``failure_threshold`` consecutive recorded
    failures open the breaker: :meth:`allow` answers ``False`` (callers fail
    fast) until ``reset_timeout`` seconds pass, after which exactly one probe
    request is let through half-open.  A successful probe closes the breaker;
    a failed one re-opens it for another full timeout.

    What counts: network-level faults and HTTP 5xx are failures; *any* HTTP
    response below 500 — including 429 saturation and 4xx rejections — is a
    success, because the node answered.  A breaker guards against dead or
    broken nodes, not busy ones (saturation already has its own channel:
    ``ServiceUnavailable(saturated=True)`` and ``Retry-After``).

    Thread-safe; ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self.consecutive_failures = 0
        self.transitions: dict[str, int] = {}
        self._opened_at: float | None = None
        self._probe_inflight = False

    def allow(self) -> bool:
        """May a request go out right now?  (May move open → half-open.)"""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if self._clock() - (self._opened_at or 0.0) >= self.reset_timeout:
                    self._transition("half-open")
                    self._probe_inflight = True
                    return True
                return False
            # half-open: one probe owns the slot until it reports back.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.consecutive_failures = 0
            self._probe_inflight = False
            if self.state != "closed":
                self._transition("closed")

    def record_failure(self) -> None:
        with self._lock:
            self._probe_inflight = False
            if self.state == "half-open":
                self._open()
                return
            self.consecutive_failures += 1
            if self.state == "closed" and self.consecutive_failures >= self.failure_threshold:
                self._open()

    def retry_in(self) -> float:
        """Seconds until an open breaker lets the next probe through."""
        with self._lock:
            if self.state != "open" or self._opened_at is None:
                return 0.0
            return max(self.reset_timeout - (self._clock() - self._opened_at), 0.0)

    def _open(self) -> None:
        self._opened_at = self._clock()
        self.consecutive_failures = 0
        self._transition("open")

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions[state] = self.transitions.get(state, 0) + 1
        _BREAKER_TRANSITIONS.inc(state=state)

    def stats(self) -> dict:
        with self._lock:
            return {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "transitions": dict(self.transitions),
            }


class ServiceClient:
    """One service endpoint, e.g. ``ServiceClient("http://127.0.0.1:8000")``.

    ``retries`` counts *additional* attempts after the first; the delay
    before retry ``n`` is ``backoff * 2**n`` seconds, unless the previous
    answer carried a ``Retry-After`` hint, which wins.  ``sleep`` is
    injectable so tests (and pollers with their own pacing) stay fast.

    Every client owns a :class:`CircuitBreaker` (pass ``breaker=`` to share
    or tune one); when it is open, :meth:`request` raises
    :class:`CircuitBreakerOpen` without touching the network.

    The convenience methods talk to the versioned ``/v1`` API; ``request``
    takes raw paths.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 0.2,
        sleep: Callable[[float], None] = time.sleep,
        breaker: CircuitBreaker | None = None,
        api_key: str | None = None,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"base_url must be an http(s) URL, got {base_url!r}")
        self._connection_class = (
            _HTTPSConnection if split.scheme == "https" else _HTTPConnection
        )
        self._address = (split.hostname, split.port)
        self._prefix = split.path
        #: This thread's keep-alive connection (``.conn``).
        self._local = threading.local()
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.api_key = api_key
        self._sleep = sleep
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._scenario_defaults: dict[str, dict] | None = None
        #: Per-instance retry tally (reason -> count), mirrored into the
        #: process-wide ``repro_client_retries_total`` family; the campaign
        #: dispatcher aggregates these into its end-of-run summary.
        self.retries_by_reason: dict[str, int] = {}
        #: Retried submits resolved by digest lookup instead of a re-POST.
        self.reconciliations = 0

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        on_retry: Callable[[], dict | None] | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One JSON round trip with retry/backoff; returns the decoded body.

        When a trace context is active (the request happens inside a span —
        e.g. a campaign cell), it is propagated in the ``X-Repro-Trace``
        header so the server's ``http.request`` span joins the caller's
        trace.  Transient failures that will be retried are counted, per
        cause, on this instance and in the metrics registry.

        ``on_retry`` runs before each re-attempt (after the backoff sleep);
        when it returns a dict, that becomes the call's result and the
        request is *not* re-sent — the reconcile hook non-idempotent calls
        like :meth:`submit` use to avoid acting twice.

        ``timeout`` replaces the client's socket timeout for this request
        only: a ``?wait=`` request passes the client's timeout plus the wait,
        so the server's bounded block is not cut off as a network failure.
        """
        url = self.base_url + path
        if not self.breaker.allow():
            raise CircuitBreakerOpen(url, self.breaker.retry_in())
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.api_key:
            # Gateway tenant authentication (see repro.gateway.quotas);
            # plain nodes ignore the header.
            headers["Authorization"] = "Bearer " + self.api_key
        ctx = obs_trace.current_context()
        if ctx is not None:
            headers[obs_trace.TRACE_HEADER] = obs_trace.format_traceparent(ctx)
        last_cause = "no attempt made"
        retry_hint: float | None = None
        attempts = self.retries + 1
        for attempt in range(attempts):
            if attempt:
                if retry_hint is not None:
                    self._sleep(retry_hint)
                    retry_hint = None
                else:
                    self._sleep(self.backoff * (2 ** (attempt - 1)))
                if on_retry is not None:
                    resolved = on_retry()
                    if resolved is not None:
                        return resolved
            try:
                maybe_fail("client.request")
                response, raw = self._exchange(
                    method, path, data, headers,
                    self.timeout if timeout is None else timeout,
                )
            except (http.client.HTTPException, OSError) as error:
                # Refused, reset, timed out, or cut short mid-response
                # (IncompleteRead: what a truncated — chaos-proxied or
                # crashed — peer produces).
                self.breaker.record_failure()
                last_cause = str(error) or type(error).__name__
                self._count_retry(last_cause, attempt, attempts)
                continue
            status = response.status
            if status >= 400:
                try:
                    body = json.loads(raw.decode("utf-8"))
                except ValueError:
                    body = None
                if status >= 500:
                    self.breaker.record_failure()
                else:
                    # The node answered — alive, even if busy or refusing.
                    self.breaker.record_success()
                if status in _RETRYABLE_STATUSES:
                    last_cause = f"HTTP {status}"
                    retry_hint = _retry_after_hint(response, body)
                    self._count_retry(last_cause, attempt, attempts)
                    continue
                raise ServiceRequestError(status, body, url)
            try:
                body = json.loads(raw.decode("utf-8"))
            except ValueError as error:
                self.breaker.record_failure()
                last_cause = f"non-JSON response: {error}"
                self._count_retry(last_cause, attempt, attempts)
                continue
            self.breaker.record_success()
            return body
        raise ServiceUnavailable(
            url, attempts, last_cause, saturated=last_cause == "HTTP 429"
        )

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict,
        timeout: float,
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request on this thread's keep-alive connection.

        Returns the response (status and headers) and its whole body.  The
        connection's socket timeout is set to ``timeout`` only when it
        differs, so a client that never varies it makes no extra syscall.  A
        kept connection the server has closed is replaced before anything
        is sent on it.  A reused connection that drops a ``GET`` before any
        response byte arrives is reopened and the ``GET`` sent once more;
        any other method raises, because the server may have acted on it.
        Any exception leaves the connection closed, so the next attempt
        starts on a fresh one.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            host, port = self._address
            conn = self._local.conn = self._connection_class(
                host, port, timeout=timeout
            )
        if conn.timeout != timeout:
            conn.timeout = timeout  # what the next connect() uses
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        target = self._prefix + path
        try:
            response = None
            if conn.sock is not None and _closed_by_server(conn.sock):
                conn.close()
                _CONNECTIONS_TOTAL.inc(outcome="stale")
            if conn.sock is not None:
                try:
                    conn.request(method, target, body=data, headers=headers)
                    response = conn.getresponse()
                except _STALE_ERRORS:
                    if method not in _IDEMPOTENT_METHODS:
                        raise
                    conn.close()
                    _CONNECTIONS_TOTAL.inc(outcome="stale")
                else:
                    _CONNECTIONS_TOTAL.inc(outcome="reused")
            if response is None:
                conn.connect()
                _CONNECTIONS_TOTAL.inc(outcome="opened")
                conn.request(method, target, body=data, headers=headers)
                response = conn.getresponse()
            return response, response.read()
        except BaseException:
            conn.close()
            raise

    def _count_retry(self, cause: str, attempt: int, attempts: int) -> None:
        """Count a transient failure that another attempt will follow."""
        if attempt >= attempts - 1:
            return  # last attempt: the failure raises, no retry happens
        reason = _retry_reason(cause)
        self.retries_by_reason[reason] = self.retries_by_reason.get(reason, 0) + 1
        _RETRIES_TOTAL.inc(reason=reason)

    def retry_stats(self) -> dict:
        """Retry/reconcile tallies of this client instance."""
        return {
            "total": sum(self.retries_by_reason.values()),
            "by_reason": dict(sorted(self.retries_by_reason.items())),
            "reconciliations": self.reconciliations,
        }

    def wait_query(self, wait: float | None) -> tuple[str, float | None]:
        """``(query, timeout)`` for a request that may carry ``?wait=``.

        The server blocks up to ``wait`` seconds before it answers, so the
        request's timeout is this client's own plus the wait; under the
        plain timeout a slow job on a healthy server would read as a network
        failure.  Without a wait: no query, the client's timeout.
        """
        if wait is None:
            return "", None
        return f"?wait={wait}", self.timeout + wait

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        return self.request("GET", "/v1/health")

    def scenarios(self) -> list[dict]:
        return self.request("GET", "/v1/scenarios")["scenarios"]

    def codecs(self) -> list[dict]:
        """Codec discovery: names, versions, and parameter schemas."""
        return self.request("GET", "/v1/codecs")["codecs"]

    def cache_stats(self) -> dict:
        return self.request("GET", "/v1/cache/stats")

    def metrics(self, format: str | None = None) -> dict | str:
        """``GET /v1/metrics``: Prometheus text, or a dict with ``format="json"``.

        The text scrape is a single attempt (no retry loop): a scraper's next
        cycle is the retry, and partial metric text is worse than none.
        """
        if format == "json":
            return self.request("GET", "/v1/metrics?format=json")
        url = self.base_url + "/v1/metrics"
        try:
            response, raw = self._exchange("GET", "/v1/metrics", None, {}, self.timeout)
        except (http.client.HTTPException, OSError) as error:
            raise ServiceUnavailable(url, 1, str(error) or type(error).__name__) from None
        if response.status >= 400:
            raise ServiceRequestError(response.status, None, url)
        return raw.decode("utf-8")

    def job_trace(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>/trace`` — the job's span tree (see repro.obs)."""
        return self.request("GET", f"/v1/jobs/{job_id}/trace")

    def submit(self, job_type: str, params: dict | None = None,
               wait: float | None = None, deadline_s: float | None = None) -> dict:
        """Submit a job; returns its record (with result if done and waited).

        ``deadline_s`` is the job's wall-clock budget on the server: a job
        that has not finished when it expires becomes ``FAILED: deadline``.

        Submits are **reconciled on retry**: a submit can time out *after*
        the server accepted it, so blindly re-POSTing may double-submit.
        Before each re-attempt the client computes the job's content digest
        (the same canonicalization the server applies) and asks ``GET
        /v1/jobs?digest=`` whether the first POST landed; if it did, that
        record is adopted instead of posting again.  Reconciled submits are
        counted in :attr:`reconciliations` / :meth:`retry_stats`.  (A record
        adopted this way is returned as-is — a ``wait=`` bound applies only
        to a fresh POST.)
        """
        query, timeout = self.wait_query(wait)
        body: dict = {"type": job_type, "params": params or {}}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self.request(
            "POST", "/v1/jobs" + query, body,
            on_retry=lambda: self._reconcile_submit(job_type, params),
            timeout=timeout,
        )

    def _reconcile_submit(self, job_type: str, params: dict | None) -> dict | None:
        """Find a possibly-already-accepted submit by content digest.

        Computes the digest exactly as the server would — canonical defaults
        from ``GET /v1/scenarios`` merged under the explicit params — and
        queries the job listing for it.  Returns the found record (any live
        or done state; a cancelled one does not count as "landed"), or
        ``None`` to let the normal retry re-POST.  Every failure mode
        (unknown scenario, unreachable server, breaker open) falls back to
        ``None``: reconciliation is an optimization for correctness, never a
        new failure path.
        """
        from .workers import job_digest  # deferred: keeps client import light

        try:
            defaults = self.scenario_defaults().get(job_type)
            if defaults is None:
                return None
            digest = job_digest(job_type, {**defaults, **dict(params or {})})
            listing = self.jobs(digest=digest)
        except (ServiceError, ValueError, TypeError, KeyError):
            return None
        for record in listing.get("jobs") or []:
            if record.get("state") != "cancelled":
                self.reconciliations += 1
                _RECONCILES_TOTAL.inc()
                return record
        return None

    def submit_campaign(self, spec: dict, jobs: int = 1, wait: float | None = None) -> dict:
        query, timeout = self.wait_query(wait)
        return self.request(
            "POST", "/v1/campaign" + query, {"spec": spec, "jobs": jobs}, timeout=timeout
        )

    def compress(
        self,
        codec: str | None = None,
        params: dict | None = None,
        stages: list | None = None,
        wait: float | None = None,
        **source: Any,
    ) -> dict:
        """``POST /v1/compress``: codec-validated submission of one tensor job.

        ``source`` takes the tensor-source knobs (``rows``/``cols``/``seed``/
        ``scale``); pass ``stages`` for a pipeline instead of ``codec``.
        """
        body: dict = dict(source)
        if codec is not None:
            body["codec"] = codec
        if params is not None:
            body["params"] = params
        if stages is not None:
            body["stages"] = stages
        query, timeout = self.wait_query(wait)
        return self.request("POST", "/v1/compress" + query, body, timeout=timeout)

    def job(self, job_id: str, wait: float | None = None) -> dict:
        """``GET /v1/jobs/<id>``; with ``wait``, block (bounded) server-side.

        A waited call answers as soon as the job finishes, with its result
        when it is done, or after ``wait`` seconds with the job as it is.
        """
        query, timeout = self.wait_query(wait)
        return self.request("GET", f"/v1/jobs/{job_id}{query}", timeout=timeout)

    def result(self, job_id: str) -> dict:
        """Full record of a finished job, including its result payload."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self.request("POST", f"/v1/jobs/{job_id}/cancel")

    def jobs(self, state: str | None = None, offset: int | None = None,
             limit: int | None = None, digest: str | None = None) -> dict:
        query = "&".join(
            f"{key}={value}"
            for key, value in (
                ("state", state),
                ("digest", digest),
                ("offset", offset),
                ("limit", limit),
            )
            if value is not None
        )
        return self.request("GET", "/v1/jobs" + (f"?{query}" if query else ""))

    def results(
        self,
        where: list[str] | None = None,
        sort: str | None = None,
        descending: bool = False,
        offset: int | None = None,
        limit: int | None = None,
        columns: list[str] | None = None,
    ) -> dict:
        """``GET /v1/results``: query the node's results warehouse.

        ``where`` takes ``"NAME OP VALUE"`` filter strings (the same syntax
        as ``repro warehouse query --where``); returns the pagination
        envelope ``{"results": [...], "total": N, "offset": o, "limit": l}``.
        A node started without a warehouse answers 503.
        """
        params: list[tuple[str, str]] = [("where", w) for w in (where or [])]
        if sort is not None:
            params.append(("sort", sort))
        if descending:
            params.append(("order", "desc"))
        if offset is not None:
            params.append(("offset", str(offset)))
        if limit is not None:
            params.append(("limit", str(limit)))
        if columns is not None:
            params.append(("columns", ",".join(columns)))
        query = urllib.parse.urlencode(params)
        return self.request(
            "GET", "/v1/results" + (f"?{query}" if query else "")
        )

    def result_detail(self, digest: str) -> dict:
        """``GET /v1/results/<digest>``: one cell's full warehouse record."""
        return self.request(
            "GET", f"/v1/results/{urllib.parse.quote(digest, safe='')}"
        )

    def scenario_defaults(self, refresh: bool = False) -> dict[str, dict]:
        """``{scenario: canonical default params}`` from ``GET /v1/scenarios``.

        Cached per client (one fetch serves every submit reconciliation);
        ``refresh=True`` re-fetches.
        """
        if self._scenario_defaults is None or refresh:
            self._scenario_defaults = {
                entry["name"]: dict(entry.get("params", {}))
                for entry in self.scenarios()
            }
        return self._scenario_defaults

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #

    def run_job(
        self,
        job_type: str,
        params: dict | None = None,
        poll_interval: float = 0.05,
        timeout: float | None = None,
        deadline_s: float | None = None,
        poll_cap: float = 2.0,
    ) -> Any:
        """Submit, wait for completion, and return the result payload.

        Completion is awaited on the server: ``GET /v1/jobs/<id>?wait=``
        blocks up to ``_JOB_WAIT_SECONDS`` per call and answers with the
        result as soon as the job is done.  Only an answer that comes back
        early without a finished job (a gateway's synthetic ``queued`` for
        a lost node's job) is followed by a sleep, which backs off
        exponentially with jitter — starting at ``poll_interval``, growing
        1.7x per sleep, capped at ``poll_cap`` seconds, each jittered by a
        uniform 0.5–1.5x factor — so such answers never become a busy loop
        and a thousand pollers do not synchronize into thundering herds.

        Raises :class:`JobFailedError` if the remote job fails and
        ``TimeoutError`` if it does not finish in ``timeout`` seconds.
        """
        record = self.submit(job_type, params, wait=0, deadline_s=deadline_s)
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = poll_interval
        while not _finished(record["state"]):
            wait = _JOB_WAIT_SECONDS
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    raise TimeoutError(
                        f"job {record['job_id']} did not finish in {timeout}s"
                    )
            asked = time.monotonic()
            record = self.job(record["job_id"], wait=wait)
            if not _finished(record["state"]) and time.monotonic() - asked < wait:
                self._sleep(delay * random.uniform(0.5, 1.5))
                delay = min(delay * 1.7, poll_cap)
        if record["state"] != "done":
            raise JobFailedError(record)
        if "result" not in record:
            record = self.result(record["job_id"])
        return record["result"]


def _retry_after_hint(response, body: dict | None) -> float | None:
    """Extract the server's retry hint from a 429/503 answer, if any.

    ``response`` is anything carrying the answer's ``headers``.

    The JSON body's ``retry_after`` (float seconds) is preferred over the
    coarser integer ``Retry-After`` header.  Hints are clamped to [0, 30] —
    a misbehaving (or chaos-injected) server must not park a client for an
    hour.
    """
    hint: float | None = None
    if isinstance(body, dict):
        value = body.get("retry_after")
        if isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0:
            hint = float(value)
    if hint is None:
        header = response.headers.get("Retry-After") if response.headers else None
        if header is not None:
            try:
                hint = float(header)
            except ValueError:
                hint = None
    if hint is None or hint < 0:
        return None
    return min(hint, 30.0)


def _finished(state: str) -> bool:
    return state in ("done", "failed", "cancelled")
