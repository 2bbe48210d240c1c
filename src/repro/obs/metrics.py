"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

A tiny, dependency-free subset of the Prometheus data model, shared by every
layer of the stack: the HTTP server times requests per route, the worker pool
tracks queue depth and per-scenario run time, the result cache counts
hits/misses/disk errors, the journal counts appends, and the codec layer
records per-codec and per-pipeline-stage compress latency.  One process-wide
:class:`MetricsRegistry` (:func:`get_metrics`) aggregates everything and is
served by ``GET /v1/metrics`` in Prometheus text exposition format (or JSON
with ``?format=json``).

Design constraints, in priority order:

1. **Cheap on the hot path.**  An observation is a dict lookup plus a couple
   of float additions under one lock — instrumentation must stay far below
   the millisecond-scale work it measures.
2. **Always scrapeable.**  The standard metric families are declared when the
   registry is created, so a scrape right after startup (or right after a
   journal replay on a fresh process) sees every family, not just the ones
   that happened to be touched.
3. **Bounded cardinality.**  Histograms use fixed buckets; label values come
   from closed sets (route patterns, scenario names, codec names, states).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_metrics",
]


class MetricError(ValueError):
    """A metric was misdeclared or misused (bad name, label, or type clash)."""


_NAME_PATTERN = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_PATTERN = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")

#: Default latency buckets (seconds): microservice-ish spread from 1 ms to
#: 1 min, matching the sub-second cache hits and multi-second suite jobs this
#: stack actually produces.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in labels.items()
    )
    return "{" + body + "}"


class _Metric:
    """Shared series bookkeeping; the registry's lock guards every mutation."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...], lock):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = lock
        self._series: dict[tuple[str, ...], Any] = {}
        if not labelnames:
            # Label-less metrics expose their zero value immediately, so a
            # scrape before any traffic still sees a numeric sample.
            self._series[()] = self._zero()

    def _zero(self) -> Any:
        return 0.0

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series_labels(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key, strict=True))

    def samples(self) -> list[tuple[str, dict, float]]:
        """``(sample name, labels, value)`` triples for text exposition."""
        raise NotImplementedError

    def to_jsonable(self) -> dict:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def samples(self) -> list[tuple[str, dict, float]]:
        with self._lock:
            return [
                (self.name, self._series_labels(key), value)
                for key, value in self._series.items()
            ]

    def to_jsonable(self) -> dict:
        with self._lock:
            series = [
                {"labels": self._series_labels(key), "value": float(value)}
                for key, value in self._series.items()
            ]
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames), "series": series}


class Gauge(Counter):
    """A value that can go up and down (queue depth, uptime, window size)."""

    kind = "gauge"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)


class Histogram(_Metric):
    """Fixed-bucket distribution; renders ``_bucket``/``_sum``/``_count``."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets: Iterable[float] | None):
        chosen = tuple(
            sorted(float(b) for b in (DEFAULT_BUCKETS if buckets is None else buckets))
        )
        if not chosen:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        self.buckets = chosen
        super().__init__(name, help, labelnames, lock)

    def _zero(self) -> Any:
        # [per-bucket counts..., +Inf count is implicit via total] + sum + count
        return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._zero()
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return int(series["count"]) if series else 0

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return float(series["sum"]) if series else 0.0

    def samples(self) -> list[tuple[str, dict, float]]:
        out: list[tuple[str, dict, float]] = []
        with self._lock:
            for key, series in self._series.items():
                labels = self._series_labels(key)
                for bound, count in zip(self.buckets, series["counts"], strict=True):
                    out.append(
                        (f"{self.name}_bucket",
                         {**labels, "le": _format_value(bound)}, count)
                    )
                out.append(
                    (f"{self.name}_bucket", {**labels, "le": "+Inf"}, series["count"])
                )
                out.append((f"{self.name}_sum", dict(labels), series["sum"]))
                out.append((f"{self.name}_count", dict(labels), series["count"]))
        return out

    def to_jsonable(self) -> dict:
        with self._lock:
            series = [
                {
                    "labels": self._series_labels(key),
                    "buckets": {
                        _format_value(bound): count
                        for bound, count in zip(self.buckets, entry["counts"], strict=True)
                    },
                    "sum": float(entry["sum"]),
                    "count": int(entry["count"]),
                }
                for key, entry in self._series.items()
            ]
        return {"type": self.kind, "help": self.help,
                "labels": list(self.labelnames),
                "bucket_bounds": [float(b) for b in self.buckets],
                "series": series}


class MetricsRegistry:
    """Get-or-create metric families, rendered as Prometheus text or JSON.

    ``counter``/``gauge``/``histogram`` return the existing family when the
    name is already declared — with the same type and label names, otherwise
    :class:`MetricError` — so independent modules can share families without
    import-order coupling.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    # ------------------------------------------------------------------ #
    # Declaration
    # ------------------------------------------------------------------ #

    def _declare(self, cls, name: str, help: str,
                 labelnames: Iterable[str], **kwargs) -> Any:
        if not _NAME_PATTERN.fullmatch(name):
            raise MetricError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_PATTERN.fullmatch(label) or label == "le":
                raise MetricError(f"invalid label name {label!r} for {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise MetricError(
                        f"metric {name!r} already declared as {existing.kind} "
                        f"with labels {sorted(existing.labelnames)}"
                    )
                return existing
            if cls is Histogram:
                metric = cls(name, help, labelnames, self._lock, kwargs.get("buckets"))
            else:
                metric = cls(name, help, labelnames, self._lock)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    # ------------------------------------------------------------------ #
    # Introspection / exposition
    # ------------------------------------------------------------------ #

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4 (one ``# TYPE`` per family)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                escaped = metric.help.replace("\\", r"\\").replace("\n", r"\n")
                lines.append(f"# HELP {name} {escaped}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, labels, value in metric.samples():
                lines.append(
                    f"{sample_name}{_render_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "families": {name: self._metrics[name].to_jsonable() for name in self.names()}
        }

    def reset(self) -> None:
        """Zero every series (tests); declared families stay declared."""
        with self._lock:
            for metric in self._metrics.values():
                labelless = () in metric._series
                metric._series.clear()
                if labelless or not metric.labelnames:
                    metric._series[()] = metric._zero()


# --------------------------------------------------------------------------- #
# The process-wide registry and its standard families
# --------------------------------------------------------------------------- #


def declare_standard_families(registry: MetricsRegistry) -> None:
    """Pre-declare every family the stack's instrumentation writes to.

    Declared once at registry creation, so ``GET /v1/metrics`` exposes the
    full family set from the very first scrape — including after a service
    restart, when journal replay rather than live traffic repopulates the
    counters.
    """
    registry.counter(
        "repro_http_requests_total",
        "HTTP requests served, by method, route pattern, and status code.",
        ("method", "route", "status"),
    )
    registry.histogram(
        "repro_http_request_seconds",
        "HTTP request handling latency per route pattern.",
        ("route",),
    )
    registry.counter(
        "repro_jobs_total",
        "Job lifecycle events per scenario: submitted, cache_hit, dedup_hit, "
        "rejected, restored, done, failed, cancelled.",
        ("scenario", "event"),
    )
    registry.gauge(
        "repro_job_queue_depth",
        "Unfinished (queued or running) jobs currently held by the worker pool.",
    )
    registry.histogram(
        "repro_job_queue_wait_seconds",
        "Time jobs spent queued before a worker picked them up.",
    )
    registry.histogram(
        "repro_job_run_seconds",
        "Job execution wall-clock time per scenario.",
        ("scenario",),
    )
    registry.counter(
        "repro_cache_hits_total", "Result-cache hits (memory or disk)."
    )
    registry.counter("repro_cache_misses_total", "Result-cache misses.")
    registry.counter("repro_cache_stores_total", "Result-cache stores.")
    registry.counter(
        "repro_cache_evictions_total", "Result-cache LRU evictions."
    )
    registry.counter(
        "repro_cache_disk_errors_total",
        "Failed best-effort disk reads/writes of the result cache.",
    )
    registry.counter(
        "repro_journal_appends_total",
        "Job-journal lines appended, by event.",
        ("event",),
    )
    registry.counter(
        "repro_journal_write_errors_total",
        "Journal lines lost to write errors (full disk, unserializable params).",
    )
    registry.counter(
        "repro_journal_quarantined_total",
        "Corrupt journal lines moved to journal.quarantine.jsonl, by reason.",
        ("reason",),
    )
    registry.counter(
        "repro_journal_sink_errors_total",
        "Journal fan-out sink invocations that raised (line kept locally).",
    )
    registry.counter(
        "repro_chaos_injections_total",
        "Faults injected by the active chaos plan, by injection point and mode.",
        ("point", "mode"),
    )
    registry.counter(
        "repro_chaos_proxy_faults_total",
        "Wire-level faults injected by ChaosProxy, by kind "
        "(forwarded, reset, error, latency, truncated).",
        ("kind",),
    )
    registry.counter(
        "repro_breaker_transitions_total",
        "ServiceClient circuit-breaker state transitions, by new state.",
        ("state",),
    )
    registry.histogram(
        "repro_codec_compress_seconds",
        "Codec compress latency per codec (pipelines report as 'pipeline').",
        ("codec",),
    )
    registry.histogram(
        "repro_pipeline_stage_seconds",
        "Per-stage compress latency inside pipeline codecs.",
        ("codec",),
    )
    registry.counter(
        "repro_client_retries_total",
        "ServiceClient retry attempts, by cause.",
        ("reason",),
    )
    registry.counter(
        "repro_client_connections_total",
        "ServiceClient keep-alive connections, by outcome (opened: a new "
        "connection; reused: a request answered on an open one; stale: an "
        "open one the server had closed, reopened and the request re-sent).",
        ("outcome",),
    )
    registry.counter(
        "repro_client_reconciliations_total",
        "Retried submits resolved by digest lookup instead of re-posting "
        "(double-submit prevention).",
    )
    registry.counter(
        "repro_dispatch_cooldowns_total",
        "Dispatcher 429-saturation cooldowns (node window shrunk, cell parked).",
    )
    registry.counter(
        "repro_gateway_requests_total",
        "Gateway HTTP requests, by route pattern, status code, and tenant.",
        ("route", "status", "tenant"),
    )
    registry.histogram(
        "repro_gateway_proxy_seconds",
        "Gateway proxied-request latency (upstream round trip) per route.",
        ("route",),
    )
    registry.gauge(
        "repro_gateway_nodes",
        "Registered nodes currently in each health state.",
        ("state",),
    )
    registry.counter(
        "repro_gateway_node_transitions_total",
        "Node health-state transitions observed by the gateway registry, "
        "by new state.",
        ("state",),
    )
    registry.counter(
        "repro_gateway_heartbeats_total",
        "Node heartbeats handled by the gateway, by outcome "
        "(ok, unknown, skew).",
        ("outcome",),
    )
    registry.counter(
        "repro_gateway_replicated_lines_total",
        "Journal lines streamed into the gateway's replica store, by outcome "
        "(accepted, rejected).",
        ("outcome",),
    )
    registry.counter(
        "repro_gateway_failover_replays_total",
        "Unfinished jobs of dead nodes replayed onto survivors, by outcome "
        "(replayed, already_finished, failed).",
        ("outcome",),
    )
    registry.counter(
        "repro_gateway_quota_rejections_total",
        "Tenant requests rejected by gateway quotas, by tenant and reason "
        "(rate, inflight, unauthorized).",
        ("tenant", "reason"),
    )
    registry.histogram(
        "repro_operation_seconds",
        "Latency of named operations timed with repro.obs.timed().",
        ("operation",),
    )
    registry.counter(
        "repro_warehouse_ingested_total",
        "Warehouse ingest outcomes per cell, by outcome "
        "(inserted, duplicate, invalid).",
        ("outcome",),
    )
    registry.histogram(
        "repro_warehouse_query_seconds",
        "Warehouse query latency (filter + pivot + sort).",
    )


_metrics_lock = threading.Lock()
_metrics: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry:
    """The process-wide registry (standard families pre-declared)."""
    global _metrics
    if _metrics is None:
        with _metrics_lock:
            if _metrics is None:
                registry = MetricsRegistry()
                declare_standard_families(registry)
                _metrics = registry
    return _metrics
