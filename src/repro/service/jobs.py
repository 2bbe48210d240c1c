"""Job records and the thread-safe job store.

A :class:`Job` tracks one submitted request through its lifecycle
(``queued -> running -> done | failed``) with wall-clock timestamps for the
API and monotonic (``time.perf_counter``) durations for the timing stats.
Completion is signalled through a ``threading.Event`` so HTTP handlers and
tests can block on a job without polling.  The event (and the cancel event)
is created on first use: a cache hit is born done, and most born-done jobs
are never waited on, so they never pay for one.
"""

from __future__ import annotations

import enum
import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Job", "JobState", "JobStore"]


class JobState(str, enum.Enum):
    """Lifecycle states of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One submitted request and everything observed about it."""

    job_id: str
    job_type: str
    params: dict
    digest: str
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    queue_seconds: float | None = None
    run_seconds: float | None = None
    result: Any = field(default=None, repr=False)
    error: str | None = None
    cache_hit: bool = False
    dedup_count: int = 0
    #: Trace this job belongs to (minted at submit if no context was active)
    #: and the submitter's span it hangs under — the link that joins a
    #: ``job.run`` span to the HTTP request (or campaign cell) that caused it.
    trace_id: str | None = None
    parent_span_id: str | None = None
    #: Which worker thread executed the job.
    worker: str | None = None
    #: Wall-clock budget from submission; expired jobs become
    #: ``FAILED: deadline`` (enforced by the worker pool's deadline timers).
    deadline_s: float | None = None
    _submitted_pc: float = field(default_factory=time.perf_counter, repr=False, compare=False)
    _started_pc: float | None = field(default=None, repr=False, compare=False)
    #: Both events are created lazily under ``_transition_lock`` (see
    #: :attr:`cancel_event` and :meth:`wait`).
    _cancel_event: threading.Event | None = field(default=None, repr=False, compare=False)
    _done_event: threading.Event | None = field(default=None, repr=False, compare=False)
    _transition_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def cancel_event(self) -> threading.Event:
        """Set when the job is cancelled or its deadline expires.

        Long-running cooperative job bodies poll it (through
        ``repro.service.workers.job_cancelled``) to stop early instead of
        computing a result nobody will read.
        """
        with self._transition_lock:
            if self._cancel_event is None:
                self._cancel_event = threading.Event()
            return self._cancel_event

    @property
    def cancel_requested(self) -> bool:
        """Whether :attr:`cancel_event` is set, without creating it."""
        event = self._cancel_event
        return event is not None and event.is_set()

    # ------------------------------------------------------------------ #
    # Lifecycle transitions (called by the worker pool)
    # ------------------------------------------------------------------ #

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_at = time.time()
        self._started_pc = time.perf_counter()
        self.queue_seconds = self._started_pc - self._submitted_pc

    def mark_done(self, result: Any, cache_hit: bool = False) -> bool:
        with self._transition_lock:
            if self.state.finished:
                return False
            self.result = result
            self.cache_hit = cache_hit
            self._finish(JobState.DONE)
        return True

    def mark_failed(self, error: str) -> bool:
        with self._transition_lock:
            if self.state.finished:
                return False
            self.error = error
            self._finish(JobState.FAILED)
        return True

    def mark_cancelled(self, reason: str = "cancelled by client") -> bool:
        with self._transition_lock:
            if self.state.finished:
                return False
            self.error = reason
            self._finish(JobState.CANCELLED)
        self.cancel_event.set()
        return True

    def _finish(self, state: JobState) -> None:
        """Terminal transition; callers hold ``_transition_lock``.

        Transitions are first-wins: a deadline timer and a worker completing
        the same job race, and exactly one of them may land the terminal
        state (the ``mark_*`` methods return whether *this* call did).
        """
        now_pc = time.perf_counter()
        self.state = state
        self.finished_at = time.time()
        if self._started_pc is not None:
            self.run_seconds = now_pc - self._started_pc
        elif self.cache_hit:
            # Cache hits never enter RUNNING: they finish at submit time.
            self.queue_seconds = 0.0
            self.run_seconds = now_pc - self._submitted_pc
        if self._done_event is not None:
            self._done_event.set()

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; ``False`` on timeout."""
        with self._transition_lock:
            if self.state.finished:
                return True
            if self._done_event is None:
                self._done_event = threading.Event()
            event = self._done_event
        return event.wait(timeout)

    def to_dict(self, include_result: bool = False) -> dict:
        """JSON-serializable view; the (possibly large) result is opt-in."""
        payload = {
            "job_id": self.job_id,
            "type": self.job_type,
            "params": self.params,
            "digest": self.digest,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "cache_hit": self.cache_hit,
            "dedup_count": self.dedup_count,
            "trace_id": self.trace_id,
            "worker": self.worker,
            "deadline_s": self.deadline_s,
            "error": self.error,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class JobStore:
    """Thread-safe registry of the jobs the service has seen.

    Finished jobs (and their result payloads) are kept as history up to
    ``max_finished`` entries, oldest evicted first, so a long-running service
    does not accumulate every result ever computed; queued/running jobs are
    never evicted.  Results stay reachable through the cache after eviction.
    """

    def __init__(self, max_finished: int = 1024) -> None:
        if max_finished <= 0:
            raise ValueError("max_finished must be positive")
        self.max_finished = max_finished
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        self._counter = itertools.count(1)

    def create(self, job_type: str, params: dict, digest: str) -> Job:
        with self._lock:
            self._evict_finished()
            job = Job(
                job_id=f"job-{next(self._counter):06d}",
                job_type=job_type,
                params=params,
                digest=digest,
            )
            self._jobs[job.job_id] = job
            return job

    def restore(self, job_id: str, job_type: str, params: dict, digest: str) -> Job:
        """Re-create a job under its historical id (journal replay).

        The id counter is advanced past the restored id so jobs created after
        a replay never collide with pre-restart ones.
        """
        with self._lock:
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already present")
            self._evict_finished()
            job = Job(job_id=job_id, job_type=job_type, params=params, digest=digest)
            self._jobs[job_id] = job
            match = re.fullmatch(r"job-(\d+)", job_id)
            if match:
                floor = int(match.group(1))
                self._counter = itertools.count(max(next(self._counter), floor + 1))
            return job

    def _evict_finished(self) -> None:
        """Make room for one more job: drop the oldest finished ones.

        Walks the jobs in submission order and stops at the ``overflow``-th
        finished one, so the cost is the in-flight jobs ahead of it plus
        one, not the whole history.
        """
        overflow = len(self._jobs) + 1 - self.max_finished
        if overflow <= 0:
            return
        doomed: list[str] = []
        for job_id, job in self._jobs.items():
            if job.state.finished:
                doomed.append(job_id)
                if len(doomed) == overflow:
                    break
        for job_id in doomed:
            del self._jobs[job_id]

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, state: JobState | None = None) -> list[Job]:
        """All jobs in submission order, optionally filtered by state."""
        with self._lock:
            jobs = list(self._jobs.values())
        if state is not None:
            jobs = [job for job in jobs if job.state is state]
        return jobs

    def counts(self) -> dict[str, int]:
        """Number of jobs per state (always reporting every state)."""
        counts = {state.value: 0 for state in JobState}
        for job in self.jobs():
            counts[job.state.value] += 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
