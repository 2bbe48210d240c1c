"""Per-tenant API keys and quotas for the gateway front door.

Tenants are declared in a JSON keys file::

    {
      "tenants": [
        {"name": "research", "key": "rk-...", "rate": 50.0,
         "burst": 100, "max_inflight": 32},
        {"name": "ci", "key": "ck-...", "rate": 5.0, "max_inflight": 4}
      ]
    }

``rate`` is sustained requests/second refilling a token bucket of capacity
``burst`` (default: ``max(rate, 1)`` rounded up), and ``max_inflight`` caps
concurrently outstanding submissions.  Either limit may be omitted (``null``
or absent = unlimited).  Requests authenticate with
``Authorization: Bearer <key>``; an unknown or missing key is refused with
401 when quotas are configured at all, and a quota rejection maps to the
service's existing 429 + ``Retry-After`` contract so every client retry path
(backoff, hints, dispatcher saturation handling) applies unchanged.

Tenant names form a **closed label set** (the file is read once at startup),
so the per-tenant request metrics stay bounded-cardinality; unauthenticated
traffic on a quota-free gateway is labelled ``anonymous``.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..obs.metrics import get_metrics

__all__ = [
    "QuotaExceeded",
    "Tenant",
    "TenantQuotas",
    "UnknownKeyError",
    "load_keys_file",
]

#: Tenant names label metrics, so they are restricted like node ids.
_TENANT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Label value for requests with no (valid) tenant on a quota-free gateway.
ANONYMOUS_TENANT = "anonymous"

_OBS = get_metrics()
_REJECTIONS = _OBS.get("repro_gateway_quota_rejections_total")


class UnknownKeyError(ValueError):
    """No tenant owns the presented API key (or none was presented)."""


class QuotaExceeded(Exception):
    """A tenant hit its rate or in-flight ceiling; retry after a hint."""

    def __init__(self, tenant: str, reason: str, retry_after: float):
        super().__init__(
            f"tenant {tenant!r} exceeded its {reason} quota; "
            f"retry after {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.reason = reason
        self.retry_after = max(float(retry_after), 0.0)


@dataclass
class Tenant:
    """One tenant's identity and limits (``None`` limit = unlimited)."""

    name: str
    key: str
    rate: float | None = None
    burst: float | None = None
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if not _TENANT_NAME_RE.match(self.name):
            raise ValueError(
                f"invalid tenant name {self.name!r}: one metric-safe segment "
                "of at most 64 characters ([A-Za-z0-9._-])"
            )
        if not self.key or not isinstance(self.key, str):
            raise ValueError(f"tenant {self.name!r} needs a non-empty string key")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"tenant {self.name!r}: rate must be > 0")
        if self.burst is None and self.rate is not None:
            self.burst = float(math.ceil(max(self.rate, 1.0)))
        if self.burst is not None and self.burst < 1:
            raise ValueError(f"tenant {self.name!r}: burst must be >= 1")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"tenant {self.name!r}: max_inflight must be >= 1")


def load_keys_file(path: str | Path, clock: Callable[[], float] = time.monotonic) -> "TenantQuotas":
    """Parse a keys file (see module docstring) into :class:`TenantQuotas`."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or not isinstance(raw.get("tenants"), list):
        raise ValueError(f"keys file {path}: expected {{'tenants': [...]}}")
    tenants = []
    for entry in raw["tenants"]:
        if not isinstance(entry, dict):
            raise ValueError(f"keys file {path}: tenant entries must be objects")
        unknown = set(entry) - {"name", "key", "rate", "burst", "max_inflight"}
        if unknown:
            raise ValueError(
                f"keys file {path}: unknown tenant fields {sorted(unknown)}"
            )
        tenants.append(
            Tenant(
                name=entry.get("name", ""),
                key=entry.get("key", ""),
                rate=None if entry.get("rate") is None else float(entry["rate"]),
                burst=None if entry.get("burst") is None else float(entry["burst"]),
                max_inflight=(
                    None
                    if entry.get("max_inflight") is None
                    else int(entry["max_inflight"])
                ),
            )
        )
    return TenantQuotas(tenants, clock=clock)


class TenantQuotas:
    """Thread-safe token buckets + in-flight caps keyed by API key.

    ``clock`` is injectable monotonic seconds so refill is unit testable.
    In-flight slots are keyed by ``(tenant, content digest)`` and released
    when the gateway observes a terminal state (or a cancel), so a tenant's
    budget survives gateway-side failover: the slot follows the work, not
    the node it ran on.  Two tenants submitting the same digest each hold
    (and are each charged) their own slot; the shared job finishing frees
    both, since the digest is what reaches a terminal state.
    """

    def __init__(self, tenants: list[Tenant], clock: Callable[[], float] = time.monotonic):
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError("duplicate tenant names in keys file")
        keys = [tenant.key for tenant in tenants]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate tenant keys in keys file")
        self._clock = clock
        self._lock = threading.Lock()
        self._by_key = {tenant.key: tenant for tenant in tenants}
        self._tenants = {tenant.name: tenant for tenant in tenants}
        self._tokens = {
            tenant.name: float(tenant.burst or 0.0) for tenant in tenants
        }
        self._refilled = {tenant.name: clock() for tenant in tenants}
        self._inflight: set[tuple[str, str]] = set()  # (tenant name, digest)

    @property
    def tenant_names(self) -> tuple[str, ...]:
        """Closed set of label values (sorted; excludes ``anonymous``)."""
        return tuple(sorted(self._tenants))

    def tenant_for(self, authorization: str | None) -> Tenant:
        """Resolve an ``Authorization`` header to a tenant or raise."""
        if not authorization:
            _REJECTIONS.inc(tenant=ANONYMOUS_TENANT, reason="unauthorized")
            raise UnknownKeyError("missing Authorization: Bearer <key> header")
        scheme, _, key = authorization.partition(" ")
        key = key.strip()
        if scheme.lower() != "bearer" or not key:
            _REJECTIONS.inc(tenant=ANONYMOUS_TENANT, reason="unauthorized")
            raise UnknownKeyError("Authorization header must be 'Bearer <key>'")
        tenant = self._by_key.get(key)
        if tenant is None:
            _REJECTIONS.inc(tenant=ANONYMOUS_TENANT, reason="unauthorized")
            raise UnknownKeyError("unknown API key")
        return tenant

    def admit(self, tenant: Tenant) -> None:
        """Charge one request against the tenant's rate bucket or raise."""
        if tenant.rate is None:
            return
        with self._lock:
            now = self._clock()
            tokens = min(
                float(tenant.burst or 0.0),
                self._tokens[tenant.name]
                + (now - self._refilled[tenant.name]) * tenant.rate,
            )
            self._refilled[tenant.name] = now
            if tokens < 1.0:
                self._tokens[tenant.name] = tokens
                retry_after = (1.0 - tokens) / tenant.rate
                _REJECTIONS.inc(tenant=tenant.name, reason="rate")
                raise QuotaExceeded(tenant.name, "rate", retry_after)
            self._tokens[tenant.name] = tokens - 1.0

    def acquire(self, tenant: Tenant, job_id: str) -> None:
        """Claim the tenant's in-flight slot for ``job_id`` or raise.

        Idempotent per ``(tenant, job_id)`` — a re-submission of work the
        tenant already has in flight costs nothing extra.  A *different*
        tenant submitting the same digest claims (and is charged) its own
        slot, so one tenant's traffic never deflates another's accounting.
        """
        with self._lock:
            slot = (tenant.name, job_id)
            if slot in self._inflight:
                return
            if tenant.max_inflight is not None:
                held = sum(
                    1 for owner, _ in self._inflight if owner == tenant.name
                )
                if held >= tenant.max_inflight:
                    _REJECTIONS.inc(tenant=tenant.name, reason="inflight")
                    raise QuotaExceeded(tenant.name, "inflight", 1.0)
            self._inflight.add(slot)

    def release(self, job_id: str) -> None:
        """Free every tenant's slot for a finished/cancelled job (idempotent).

        The shared job reached a terminal state once, for everyone who
        submitted it — each holder's slot frees exactly once.
        """
        with self._lock:
            self._inflight = {
                slot for slot in self._inflight if slot[1] != job_id
            }

    def inflight(self, tenant_name: str) -> int:
        with self._lock:
            return sum(
                1 for owner, _ in self._inflight if owner == tenant_name
            )
