"""Compression-as-a-service layer over the experiment harness.

Turns the batch CLI into a servable system (``python -m repro.cli serve``):

* :mod:`repro.service.jobs` — job records, lifecycle states, and the store.
* :mod:`repro.service.journal` — append-only JSONL job journal replayed on
  restart, making the service durable.
* :mod:`repro.service.registry` — named, parameterized job types: every
  paper experiment plus ad-hoc compression/simulation jobs.
* :mod:`repro.service.workers` — thread pool executing jobs with caching,
  in-flight deduplication, cancellation, per-job deadlines, and queue
  backpressure.
* :mod:`repro.service.http` — the one HTTP layer (handler and server base,
  declarative route tables) under the node and the gateway.
* :mod:`repro.service.server` — the node's HTTP/JSON API.
* :mod:`repro.service.client` — stdlib HTTP client with retries/backoff,
  per-node circuit breaking, and typed errors (the substrate of federated
  campaign dispatch).

The content-hash result cache (:mod:`repro.core.cache`) is re-exported here
as ``ResultCache``, ``CacheStats`` and ``MISSING``.
"""

from ..core.cache import MISSING, CacheStats, ResultCache
from .client import (
    CircuitBreaker,
    CircuitBreakerOpen,
    JobFailedError,
    ServiceClient,
    ServiceError,
    ServiceRequestError,
    ServiceUnavailable,
)
from .jobs import Job, JobState, JobStore
from .journal import JobJournal
from .registry import JobType, ScenarioRegistry, build_default_registry
from .server import API_VERSION, V1_ROUTES, ReproServer, create_server
from .workers import QueueFullError, WorkerPool, job_cancelled, job_digest

__all__ = [
    "API_VERSION",
    "MISSING",
    "CacheStats",
    "CircuitBreaker",
    "CircuitBreakerOpen",
    "Job",
    "JobFailedError",
    "JobJournal",
    "JobState",
    "JobStore",
    "JobType",
    "QueueFullError",
    "ReproServer",
    "ResultCache",
    "ScenarioRegistry",
    "ServiceClient",
    "ServiceError",
    "ServiceRequestError",
    "ServiceUnavailable",
    "V1_ROUTES",
    "WorkerPool",
    "build_default_registry",
    "create_server",
    "job_cancelled",
    "job_digest",
]
