"""Content-hash result cache: in-memory LRU with optional on-disk persistence.

Keys are stable digests of the inputs that produced a value (see
:mod:`repro.core.hashing`), so a repeated compression/experiment request is a
dictionary lookup instead of a recomputation.  Two layers build on this class:
the service worker pool (whole-job results, persisted as JSON) and the
in-process artifact memo of :mod:`repro.core.memo` (live Python artifacts,
memory only).  Values must be JSON-serializable only when a persistence
directory is configured.

The cache is thread-safe: the HTTP server handles each request on its own
thread and the worker pool stores results from worker threads.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from ..chaos.plan import maybe_fail
from ..obs.metrics import get_metrics

__all__ = ["MISSING", "CacheStats", "ResultCache"]

# Process-wide counters mirroring every cache instance's CacheStats: the
# per-instance stats stay authoritative for /v1/cache, the global families
# aggregate across instances (service pool, campaign pools, artifact memo)
# for /v1/metrics scrapes.  Bound once — counter lookups are off the hot path.
_OBS = get_metrics()
_OBS_HITS = _OBS.get("repro_cache_hits_total")
_OBS_MISSES = _OBS.get("repro_cache_misses_total")
_OBS_STORES = _OBS.get("repro_cache_stores_total")
_OBS_EVICTIONS = _OBS.get("repro_cache_evictions_total")
_OBS_DISK_ERRORS = _OBS.get("repro_cache_disk_errors_total")


class _Missing:
    """Sentinel distinguishing "no cached entry" from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MISSING>"


#: Pass as ``default`` to :meth:`ResultCache.get` to tell a miss apart from a
#: stored ``None`` — a legitimate job result that must still cache-hit.
MISSING: Any = _Missing()


class CacheStats:
    """Mutable hit/miss/eviction counters, exported as a dict for the API."""

    __slots__ = ("hits", "misses", "evictions", "stores", "disk_hits", "disk_errors")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0
        self.disk_hits = 0
        self.disk_errors = 0

    def as_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "disk_errors": self.disk_errors,
            "hit_rate": self.hits / total if total else 0.0,
        }


class ResultCache:
    """LRU mapping of content digests to job results.

    Parameters
    ----------
    max_entries:
        In-memory capacity; the least-recently-used entry is evicted first.
        Evicted entries remain recoverable from disk when ``directory`` is set.
    directory:
        Optional persistence directory.  Every stored value is also written to
        ``<directory>/<key>.json`` (atomically, via rename), and misses fall
        back to disk — so a restarted service keeps its warmed cache.
    """

    def __init__(self, max_entries: int = 256, directory: str | os.PathLike | None = None):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._stats = CacheStats()
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #

    def get(self, key: str, default: Any = None) -> Any:
        """Return the cached value for ``key`` (LRU-refreshing), else ``default``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                _OBS_HITS.inc()
                return self._entries[key]
        # Disk fallback outside the lock: file I/O must not serialize every
        # concurrent cache access across worker and handler threads.
        value = self._load_from_disk(key)
        with self._lock:
            if key in self._entries:  # raced with a concurrent put/get
                self._entries.move_to_end(key)
                self._stats.hits += 1
                _OBS_HITS.inc()
                return self._entries[key]
            if value is not MISSING:
                self._insert(key)
                self._entries[key] = value
                self._stats.hits += 1
                self._stats.disk_hits += 1
                _OBS_HITS.inc()
                return value
            self._stats.misses += 1
            _OBS_MISSES.inc()
            return default

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``, evicting LRU entries beyond capacity.

        The optional disk write is best-effort: a value that cannot be
        serialized (or a full/unwritable disk) only loses persistence — the
        in-memory entry stands and the caller's already-computed result is
        never turned into a failure.  Such skips count as ``disk_errors``.
        """
        with self._lock:
            self._insert(key)
            self._entries[key] = value
            self._stats.stores += 1
            _OBS_STORES.inc()
        if self._directory is not None:
            # Written outside the lock; the tmp-file + rename keeps each key's
            # file atomic, and concurrent writers of the same key write equal
            # content (keys are content digests).
            try:
                self._write_to_disk(key, value)
            except (TypeError, ValueError, OSError):
                with self._lock:
                    self._stats.disk_errors += 1
                _OBS_DISK_ERRORS.inc()

    def _insert(self, key: str) -> None:
        """Reserve a slot for ``key``: refresh if present, else evict to fit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
            _OBS_EVICTIONS.inc()

    # ------------------------------------------------------------------ #
    # Disk persistence
    # ------------------------------------------------------------------ #

    def _path(self, key: str) -> Path:
        assert self._directory is not None
        return self._directory / f"{key}.json"

    def _write_to_disk(self, key: str, value: Any) -> None:
        maybe_fail("cache.disk_write")
        path = self._path(key)
        # ``json.dumps`` runs the C encoder (``json.dump`` streams through the
        # pure-Python one) and fails on a bad value before any file exists.
        text = json.dumps(value, allow_nan=False)
        # Unique tmp file per writer: concurrent stores of the same key must
        # not interleave into one tmp file before the atomic rename.
        with tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{key}.", suffix=".tmp", delete=False
        ) as handle:
            try:
                handle.write(text)
            except BaseException:
                # A half-written tmp file must not outlive the failed store.
                handle.close()
                with contextlib.suppress(OSError):
                    os.unlink(handle.name)
                raise
        os.replace(handle.name, path)

    def _load_from_disk(self, key: str) -> Any:
        if self._directory is None:
            return MISSING
        path = self._path(key)
        if not path.exists():
            return MISSING
        try:
            with path.open() as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return MISSING

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "persistent": self._directory is not None,
                **self._stats.as_dict(),
            }

    def clear(self) -> None:
        """Drop the in-memory entries (persisted files are left in place)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership check without touching LRU order or counters."""
        with self._lock:
            return key in self._entries
