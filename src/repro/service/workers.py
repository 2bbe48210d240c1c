"""Worker pool: executes registry jobs on threads, with caching and dedup.

Submission path (all under one lock, so concurrent clients agree):

1. compute the job's content digest from ``(job type, params)``;
2. cache hit -> a job that is born ``done`` with ``cache_hit=True``;
3. an identical job already queued/running -> return *that* job (in-flight
   deduplication: concurrent clients share one computation);
4. the pool is saturated (``max_queued`` unfinished jobs) ->
   :class:`QueueFullError` (the HTTP layer maps it to 429, with a
   ``Retry-After`` hint derived from observed job durations);
5. otherwise enqueue a fresh job on the executor.

Results are cached only on success; failures capture the traceback on the job
and are re-runnable.  A queued job can be cancelled (:meth:`WorkerPool.cancel`)
until a worker picks it up.  With a :class:`~repro.service.journal.JobJournal`
attached, every accepted job and every terminal transition is journaled, and
:meth:`WorkerPool.restore_job` rebuilds pre-restart jobs during replay.

Failure semantics hardened here:

* **Deadlines** — ``submit(..., deadline_s=...)`` arms a ``threading.Timer``
  per job; on expiry the job becomes ``FAILED: deadline`` (never a zombie),
  its queued future is cancelled, and its ``cancel_event`` is set so a
  cooperative body (:func:`job_cancelled`) can stop early.  Terminal
  transitions are first-wins (see :class:`~repro.service.jobs.Job`), so a
  timer racing a completing worker never double-books metrics or journal
  lines.  The deadline is **not** part of the content digest — the same work
  under a different budget is still the same work.

Jobs run on threads: numpy releases the GIL for its heavy kernels, and a
job body shares the node's caches, memo, trace log and chaos plan.  More
cores come from more processes, not from this pool: nodes registered behind
a gateway (``repro serve --register``), ``repro campaign dispatch --nodes``,
or concurrent ``repro campaign run --shard I/N`` into one run directory.
"""

from __future__ import annotations

import contextvars
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor

from ..chaos.plan import maybe_fail
from ..core.cache import MISSING, ResultCache
from ..core.hashing import stable_digest
from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics
from .jobs import Job, JobState, JobStore
from .journal import JobJournal
from .registry import ScenarioRegistry

__all__ = ["QueueFullError", "WorkerPool", "job_cancelled", "job_digest"]

# Pool-level metric families, shared across every pool in the process (the
# service pool and any campaign pools aggregate into one scrape).
_OBS = get_metrics()
_JOBS_TOTAL = _OBS.get("repro_jobs_total")
_QUEUE_DEPTH = _OBS.get("repro_job_queue_depth")
_QUEUE_WAIT = _OBS.get("repro_job_queue_wait_seconds")
_RUN_SECONDS = _OBS.get("repro_job_run_seconds")


def job_digest(job_type: str, params: dict) -> str:
    """Stable content digest identifying one job's full input."""
    return stable_digest("repro-job", job_type, params)


#: The job a worker thread is currently executing.
_CURRENT_JOB: contextvars.ContextVar[Job | None] = contextvars.ContextVar(
    "repro_current_job", default=None
)


def job_cancelled() -> bool:
    """True when the currently-executing job was cancelled or hit its deadline.

    Long-running cooperative job bodies call this between work units and bail
    out early instead of computing a result nobody will read.  Outside a
    worker thread it is always ``False``.
    """
    job = _CURRENT_JOB.get()
    return job is not None and job.cancel_requested


class QueueFullError(RuntimeError):
    """The pool already holds ``max_queued`` unfinished jobs (backpressure).

    Carries the pool's ``retry_after`` hint — an estimate of when capacity
    frees up, derived from observed job durations — which the HTTP layer
    forwards as a ``Retry-After`` header on the 429.
    """

    def __init__(self, limit: int, retry_after: float = 0.5):
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"job queue is full ({limit} unfinished job(s)); retry later"
        )


class WorkerPool:
    """Thread pool executing registry jobs with caching and dedup.

    The spans of its jobs, and the spans their bodies start, are written to
    ``trace_log``; by default to the trace log current where the pool is
    built, so a campaign's pool inside a node's job logs to that node.
    """

    def __init__(
        self,
        registry: ScenarioRegistry,
        cache: ResultCache | None = None,
        max_workers: int = 2,
        store: JobStore | None = None,
        max_queued: int | None = None,
        journal: JobJournal | None = None,
        trace_log: obs_trace.TraceLog | None = None,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_queued is not None and max_queued < 1:
            raise ValueError("max_queued must be >= 1 (or None for unbounded)")
        self.registry = registry
        self.cache = cache if cache is not None else ResultCache()
        self.store = store if store is not None else JobStore()
        self.max_queued = max_queued
        self._journal = journal
        self.trace_log = trace_log if trace_log is not None else obs_trace.current_log()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-worker"
        )
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._inflight: dict[str, str] = {}  # digest -> job_id
        self._futures: dict[str, Future] = {}  # job_id -> executor future
        self._deadline_timers: dict[str, threading.Timer] = {}  # job_id -> timer
        self._submitted = 0
        self._cache_hits = 0
        self._dedup_hits = 0
        self._cancelled = 0
        self._rejected = 0
        self._expired = 0
        #: EWMA of observed job run durations, feeding the Retry-After hint.
        self._run_ewma: float | None = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        job_type: str,
        params: dict | None = None,
        deadline_s: float | None = None,
    ) -> Job:
        """Submit a job; may return an already-finished or shared job.

        ``deadline_s`` is a wall-clock budget from now: a job that has not
        finished when it expires becomes ``FAILED: deadline``.  It does not
        participate in the content digest, so a deduplicated submit shares
        the in-flight job *and its original deadline*.
        """
        if deadline_s is not None:
            if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool):
                raise ValueError("deadline_s must be a positive number")
            if not deadline_s > 0:
                raise ValueError("deadline_s must be a positive number")
        declared = self.registry.get(job_type)  # fail fast on unknown job types
        # Canonicalize against the declared defaults before hashing, so
        # {"seed": 0} and {} dedup/cache to the same digest (unknown keys are
        # kept and rejected at run time, failing the job with a clear error).
        params = {**declared.defaults, **dict(params or {})}
        digest = job_digest(job_type, params)
        # Capture the submitter's trace context now (the caller's thread owns
        # the contextvar); worker threads re-activate it when they execute.
        ctx = obs_trace.current_context()
        with self._lock:
            # A sentinel default tells a miss apart from a cached ``None``
            # result (a legitimate value that must still hit).
            cached = self.cache.get(digest, MISSING)
            if cached is not MISSING:
                job = self.store.create(job_type, params, digest)
                self._attach_trace(job, ctx)
                job.mark_done(cached, cache_hit=True)
                self._cache_hits += 1
                _JOBS_TOTAL.inc(scenario=job_type, event="submitted")
                _JOBS_TOTAL.inc(scenario=job_type, event="cache_hit")
                # Even a born-done job leaves a span, so its trace shows the
                # cache hit instead of a hole.
                self._start_job_span(job).finish()
                self._record_submit(job)
                self._record_finish(job)
                return job
            existing_id = self._inflight.get(digest)
            if existing_id is not None:
                existing = self.store.get(existing_id)
                if existing is not None and not existing.state.finished:
                    existing.dedup_count += 1
                    self._dedup_hits += 1
                    _JOBS_TOTAL.inc(scenario=job_type, event="dedup_hit")
                    return existing
            if self.max_queued is not None and len(self._inflight) >= self.max_queued:
                self._rejected += 1
                _JOBS_TOTAL.inc(scenario=job_type, event="rejected")
                raise QueueFullError(
                    self.max_queued, retry_after=self._retry_after_hint_locked()
                )
            job = self.store.create(job_type, params, digest)
            job.deadline_s = deadline_s
            self._attach_trace(job, ctx)
            self._enqueue_inflight(job)
            self._submitted += 1
            _JOBS_TOTAL.inc(scenario=job_type, event="submitted")
        self._record_submit(job)
        self._dispatch(job)
        self._arm_deadline(job)
        return job

    def _attach_trace(self, job: Job, ctx: obs_trace.TraceContext | None) -> None:
        """Give every job a trace identity: joined or freshly minted."""
        if ctx is not None:
            job.trace_id = ctx.trace_id
            job.parent_span_id = ctx.span_id
        else:
            job.trace_id = obs_trace.new_trace_id()

    def _start_job_span(self, job: Job) -> obs_trace.Span:
        """Open the job's ``job.run`` span inside its own trace."""
        return obs_trace.Span(
            name="job.run",
            trace_id=job.trace_id or obs_trace.new_trace_id(),
            parent_id=job.parent_span_id,
            log=self.trace_log,
            attrs={
                "job_id": job.job_id,
                "scenario": job.job_type,
                "cache_hit": job.cache_hit,
                "worker": threading.current_thread().name,
            },
        )

    def _enqueue_inflight(self, job: Job) -> None:
        """Track an accepted job; the depth gauge follows ``len(_inflight)``."""
        if job.digest not in self._inflight:
            _QUEUE_DEPTH.inc()
        self._inflight[job.digest] = job.job_id

    def run(
        self,
        job_type: str,
        params: dict | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> Job:
        """Submit and block until finished (convenience for CLI/tests)."""
        job = self.submit(job_type, params, deadline_s=deadline_s)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job.job_id} ({job_type}) did not finish in {timeout}s")
        return job

    def restore_job(
        self,
        job_id: str,
        job_type: str,
        params: dict,
        digest: str,
        state: JobState | None = None,
        error: str | None = None,
        trace_id: str | None = None,
        deadline_s: float | None = None,
    ) -> tuple[Job, bool]:
        """Re-create a pre-restart job under its historical id (journal replay).

        Returns ``(job, requeued)``: DONE jobs are rebuilt from the result
        cache without recomputing; FAILED/CANCELLED keep their terminal state;
        anything else — including a DONE job whose payload did not survive the
        restart — is re-enqueued for execution.  Backpressure does not apply:
        these jobs were accepted before the restart.  ``trace_id`` (from the
        journal's submit record) keeps the job's trace identity across the
        restart; the parent span is gone with the old process.  A journaled
        ``deadline_s`` re-arms with its *full* budget — the pre-restart wall
        clock is meaningless after a restart.
        """
        with self._lock:
            job = self.store.restore(job_id, job_type, params, digest)
        job.trace_id = trace_id or obs_trace.new_trace_id()
        if deadline_s is not None and deadline_s > 0:
            job.deadline_s = float(deadline_s)
        _JOBS_TOTAL.inc(scenario=job_type, event="restored")
        if state is JobState.FAILED:
            job.mark_failed(error or "failed before service restart")
            return job, False
        if state is JobState.CANCELLED:
            job.mark_cancelled(error or "cancelled before service restart")
            return job, False
        # DONE — or unfinished with a persisted result (the crash landed
        # between the cache store and the journal's finish line): either way
        # the cache payload stands in and nothing recomputes.
        cached = self.cache.get(digest, MISSING)
        if cached is not MISSING:
            job.mark_done(cached, cache_hit=True)
            with self._lock:
                self._cache_hits += 1
            if state is not JobState.DONE:
                self._record_finish(job)  # the journal lacked this line
            return job, False
        # Unfinished (or completed but its payload is gone): run it again.
        with self._lock:
            self._enqueue_inflight(job)
            self._submitted += 1
        self._dispatch(job)
        self._arm_deadline(job)
        return job, True

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a queued job; returns the job (any state) or ``None``.

        Only jobs a worker has not picked up yet can be cancelled — callers
        inspect the returned job's state to see whether the cancel landed
        (CANCELLED) or the job was already running/finished.
        """
        job = self.store.get(job_id)
        if job is None or job.state.finished:
            return job
        # submit() releases the pool lock before _dispatch registers the
        # future, so an immediate cancel can observe a QUEUED job with no
        # future yet; wait out that window briefly instead of refusing.
        future = None
        for _ in range(25):
            with self._lock:
                future = self._futures.get(job_id)
            if future is not None or job.state.finished:
                break
            time.sleep(0.002)
        # future.cancel() fires done-callbacks synchronously, so it must run
        # outside the pool lock; it is atomic against executor pickup.
        if future is None or not future.cancel():
            return job
        if not job.mark_cancelled():
            return job  # a deadline timer got there first
        self._record_finish(job)
        self._cleanup(job)
        with self._lock:
            self._cancelled += 1
        _JOBS_TOTAL.inc(scenario=job.job_type, event="cancelled")
        return job

    # ------------------------------------------------------------------ #
    # Deadlines
    # ------------------------------------------------------------------ #

    def _arm_deadline(self, job: Job) -> None:
        if job.deadline_s is None or job.state.finished:
            return
        timer = threading.Timer(job.deadline_s, self._expire_job, args=(job,))
        timer.daemon = True
        with self._lock:
            self._deadline_timers[job.job_id] = timer
        timer.start()
        if job.state.finished:
            # The job finished between the checks; _cleanup already popped
            # (or will pop) the timer entry — make sure it cannot fire late.
            timer.cancel()

    def _expire_job(self, job: Job) -> None:
        """Deadline timer body: fail the job unless it already finished."""
        # Flag first: a cooperative running body observes the cancellation
        # even while we race it for the terminal transition below.
        job.cancel_event.set()
        with self._lock:
            future = self._futures.get(job.job_id)
        if future is not None:
            # Queued jobs never start; running ones keep the worker until the
            # body returns (its completion loses the first-wins transition).
            future.cancel()
        if not job.mark_failed(
            f"deadline: exceeded {job.deadline_s}s budget "
            f"(state at expiry: {'running' if job.started_at else 'queued'})"
        ):
            return  # the worker finished first; nothing expired
        with self._lock:
            self._expired += 1
        _JOBS_TOTAL.inc(scenario=job.job_type, event="deadline")
        self._observe_finish(job)
        self._record_finish(job)
        self._cleanup(job)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #

    def _dispatch(self, job: Job) -> None:
        future = self._executor.submit(self._execute, job)
        with self._lock:
            # A fast job may already be finished (its cleanup saw no entry);
            # only track futures whose jobs can still be cancelled.
            if not job.state.finished:
                self._futures[job.job_id] = future

    def _record_submit(self, job: Job) -> None:
        if self._journal is not None:
            self._journal.record_submit(job)

    def _record_finish(self, job: Job) -> None:
        if self._journal is not None:
            self._journal.record_finish(job)

    def _cleanup(self, job: Job) -> None:
        with self._lock:
            if self._inflight.get(job.digest) == job.job_id:
                del self._inflight[job.digest]
                _QUEUE_DEPTH.dec()
            self._futures.pop(job.job_id, None)
            timer = self._deadline_timers.pop(job.job_id, None)
        if timer is not None:
            timer.cancel()

    def _observe_finish(self, job: Job) -> None:
        if job.run_seconds is not None:
            _RUN_SECONDS.observe(job.run_seconds, scenario=job.job_type)
            with self._lock:
                self._run_ewma = (
                    job.run_seconds
                    if self._run_ewma is None
                    else 0.8 * self._run_ewma + 0.2 * job.run_seconds
                )
        event = "done" if job.state is JobState.DONE else "failed"
        _JOBS_TOTAL.inc(scenario=job.job_type, event=event)

    def _execute(self, job: Job) -> None:
        if job.state.finished or job.cancel_requested:
            # The deadline expired (or a cancel landed) while this sat in the
            # executor queue faster than future.cancel() could stop it; the
            # expirer owns the bookkeeping.
            return
        job.mark_running()
        job.worker = threading.current_thread().name
        if job.queue_seconds is not None:
            _QUEUE_WAIT.observe(job.queue_seconds)
        # The job's span is activated around the body, so codec/pipeline
        # spans started inside nest under it and share the job's trace.
        job_span = self._start_job_span(job)
        token = _CURRENT_JOB.set(job)
        finished_here = False
        try:
            with obs_trace.logging_to(self.trace_log), obs_trace.activate(job_span):
                maybe_fail("worker.run")
                result = self.registry.run(job.job_type, job.params)
            # Store before marking done: once a client sees DONE, the cache
            # must already serve the digest.
            self.cache.put(job.digest, result)
            finished_here = job.mark_done(result)
            job_span.finish()
        except BaseException:
            # BaseException too: a body that calls sys.exit() kills only its
            # job, never leaves it RUNNING with its digest stuck in flight.
            finished_here = job.mark_failed(traceback.format_exc())
            job_span.finish(error=job.error.strip().splitlines()[-1] if job.error else "failed")
        finally:
            _CURRENT_JOB.reset(token)
            # First-wins: when a deadline timer landed the terminal state,
            # it also did the metrics/journal/cleanup — doing it again here
            # would double-count.
            if finished_here:
                self._observe_finish(job)
                self._record_finish(job)
                self._cleanup(job)

    # ------------------------------------------------------------------ #
    # Introspection / shutdown
    # ------------------------------------------------------------------ #

    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before retrying.

        Scales the EWMA of observed run durations by how many jobs are ahead
        per worker, clamped to [0.1, 30].  Before any job has finished the
        hint is a flat 0.5s.
        """
        with self._lock:
            return self._retry_after_hint_locked()

    def _retry_after_hint_locked(self) -> float:
        if self._run_ewma is None:
            return 0.5
        backlog = max(len(self._inflight), 1) / max(self.max_workers, 1)
        return min(max(self._run_ewma * backlog, 0.1), 30.0)

    def stats(self) -> dict:
        with self._lock:
            submitted, cache_hits, dedup_hits = (
                self._submitted,
                self._cache_hits,
                self._dedup_hits,
            )
            cancelled, rejected = self._cancelled, self._rejected
            expired = self._expired
            inflight = len(self._inflight)
            retry_after = self._retry_after_hint_locked()
        return {
            "workers": self.max_workers,
            "executed": submitted,
            "cache_hits": cache_hits,
            "dedup_hits": dedup_hits,
            "cancelled": cancelled,
            "rejected": rejected,
            "expired": expired,
            "max_queued": self.max_queued,
            "inflight": inflight,
            "retry_after_hint": retry_after,
            "states": self.store.counts(),
        }

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop the executor.

        ``cancel_pending=True`` is the graceful-drain mode: queued futures
        are cancelled (those jobs stay QUEUED — with a journal attached their
        submit lines have no finish line, so a restart re-enqueues them)
        while already-running jobs finish under ``wait=True``.
        """
        with self._lock:
            timers = list(self._deadline_timers.values())
            self._deadline_timers.clear()
        for timer in timers:
            timer.cancel()
        if cancel_pending:
            self._executor.shutdown(wait=wait, cancel_futures=True)
        else:
            self._executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
