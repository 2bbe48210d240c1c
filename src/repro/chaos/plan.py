"""Fault plans: named, deterministic injection points across the stack.

A :class:`FaultPlan` is a set of :class:`FaultRule` entries keyed by
*injection point* — a dotted name baked into the production code path it can
break (``chaos.maybe_fail("journal.append")`` sits inside the journal's
write path, ``"worker.run"`` inside job execution, and so on; see
:data:`INJECTION_POINTS`).  With no plan installed, ``maybe_fail`` is a
module-global ``None`` check and costs nothing; with one installed, each
matching rule may add latency, raise a chosen exception, or both, governed
by probability/count/skip gates and a seeded RNG so a chaos run is
reproducible.

Plans come from three places, in precedence order:

1. :func:`install_plan` — tests and embedding code install one directly;
2. the ``REPRO_CHAOS`` environment variable — either inline JSON or
   ``@/path/to/plan.json``, resolved lazily on first use so ``repro serve``
   under chaos needs no code changes;
3. nothing — the default, and the fast path.

Spec layout (JSON)::

    {
      "seed": 42,
      "rules": [
        {"point": "journal.append", "probability": 0.2, "mode": "error",
         "exception": "OSError", "count": 3},
        {"point": "worker.run", "mode": "latency", "latency_s": 0.05},
        {"point": "client.*", "probability": 0.1, "mode": "error",
         "exception": "ConnectionResetError", "skip": 2}
      ]
    }

``point`` is an ``fnmatch`` pattern against the injection-point name.  Every
injection is counted in ``repro_chaos_injections_total{point,mode}``.
"""

from __future__ import annotations

import fnmatch
import json
import os
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any

from ..obs.metrics import get_metrics

__all__ = [
    "INJECTION_POINTS",
    "ChaosSpecError",
    "FaultPlan",
    "FaultRule",
    "clear_plan",
    "get_plan",
    "install_plan",
    "maybe_fail",
]

#: Environment variable holding a chaos spec (inline JSON or ``@path``).
CHAOS_ENV = "REPRO_CHAOS"

#: Every injection point wired into the stack, with what firing it breaks.
#: The single source of truth for ``repro chaos points`` and rule validation
#: hints (rules may still use patterns that match nothing — a plan written
#: for a newer revision must not crash an older one).
INJECTION_POINTS: dict[str, str] = {
    "journal.append": "a job-journal write fails (counted as a write error, "
    "never fails the job itself)",
    "worker.run": "a job body raises before the scenario runs (job FAILED "
    "with the injected traceback)",
    "client.request": "one ServiceClient HTTP attempt fails with a network "
    "error (retried like a dropped packet)",
    "server.request": "a request handler raises mid-dispatch (answered as a "
    "500 JSON envelope)",
    "cache.disk_write": "a result-cache disk persistence write fails "
    "(in-memory entry survives, disk_errors counts it)",
}

#: Exceptions a rule may raise, by name — a closed set so a chaos spec can
#: never name something with import side effects.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "OSError": OSError,
    "IOError": OSError,
    "ConnectionError": ConnectionError,
    "ConnectionResetError": ConnectionResetError,
    "BrokenPipeError": BrokenPipeError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "MemoryError": MemoryError,
}

_INJECTIONS_TOTAL = get_metrics().get("repro_chaos_injections_total")


class ChaosSpecError(ValueError):
    """A chaos spec is malformed (bad field, unknown exception, bad JSON)."""


@dataclass
class FaultRule:
    """One injection rule; mutable counters track how often it fired."""

    point: str  #: fnmatch pattern over injection-point names
    probability: float = 1.0
    count: int | None = None  #: stop firing after this many injections
    skip: int = 0  #: let the first N matching calls through untouched
    latency_s: float = 0.0
    exception: str | None = None  #: key of :data:`_EXCEPTIONS`, or None
    message: str = "chaos: injected fault"
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.point or not isinstance(self.point, str):
            raise ChaosSpecError("rule needs a non-empty string 'point'")
        if not 0.0 <= float(self.probability) <= 1.0:
            raise ChaosSpecError(
                f"rule {self.point!r}: probability must be in [0, 1], "
                f"got {self.probability}"
            )
        if self.count is not None and (not isinstance(self.count, int) or self.count < 1):
            raise ChaosSpecError(f"rule {self.point!r}: count must be a positive integer")
        if not isinstance(self.skip, int) or self.skip < 0:
            raise ChaosSpecError(f"rule {self.point!r}: skip must be an integer >= 0")
        if float(self.latency_s) < 0:
            raise ChaosSpecError(f"rule {self.point!r}: latency_s must be >= 0")
        if self.exception is not None and self.exception not in _EXCEPTIONS:
            raise ChaosSpecError(
                f"rule {self.point!r}: unknown exception {self.exception!r}; "
                f"one of {sorted(_EXCEPTIONS)}"
            )
        if self.exception is None and float(self.latency_s) <= 0:
            raise ChaosSpecError(
                f"rule {self.point!r}: a rule must inject latency, an "
                "exception, or both"
            )

    @property
    def mode(self) -> str:
        if self.exception is not None:
            return "error+latency" if self.latency_s > 0 else "error"
        return "latency"

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "mode": self.mode,
            "probability": self.probability,
            "count": self.count,
            "skip": self.skip,
            "latency_s": self.latency_s,
            "exception": self.exception,
            "seen": self.seen,
            "fired": self.fired,
        }


def _parse_rule(entry: Any, position: int) -> FaultRule:
    if not isinstance(entry, dict):
        raise ChaosSpecError(f"rules[{position}] must be a JSON object")
    known = {
        "point", "probability", "count", "skip", "latency_s",
        "exception", "message", "mode",
    }
    unknown = set(entry) - known
    if unknown:
        raise ChaosSpecError(f"rules[{position}]: unknown field(s) {sorted(unknown)}")
    mode = entry.get("mode")
    if mode is not None and mode not in ("error", "latency"):
        raise ChaosSpecError(
            f"rules[{position}]: mode must be 'error' or 'latency', got {mode!r}"
        )
    exception = entry.get("exception")
    if mode == "error" and exception is None:
        exception = "OSError"  # the default way to break something
    if mode == "latency":
        exception = None
    return FaultRule(
        point=entry.get("point", ""),
        probability=float(entry.get("probability", 1.0)),
        count=entry.get("count"),
        skip=int(entry.get("skip", 0)),
        latency_s=float(entry.get("latency_s", 0.0)),
        exception=exception,
        message=entry.get("message", "chaos: injected fault"),
    )


class FaultPlan:
    """A seeded, thread-safe set of fault rules with firing bookkeeping."""

    def __init__(self, rules: list[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = seed
        self._rng = Random(seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_spec(cls, spec: Any) -> "FaultPlan":
        """Build a plan from a decoded JSON spec (``{"seed":..., "rules": [...]}``)."""
        if isinstance(spec, list):  # bare rule list shorthand
            spec = {"rules": spec}
        if not isinstance(spec, dict):
            raise ChaosSpecError("chaos spec must be a JSON object or rule list")
        unknown = set(spec) - {"seed", "rules"}
        if unknown:
            raise ChaosSpecError(f"unknown top-level field(s) {sorted(unknown)}")
        rules_raw = spec.get("rules")
        if not isinstance(rules_raw, list) or not rules_raw:
            raise ChaosSpecError("chaos spec needs a non-empty 'rules' list")
        seed = spec.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ChaosSpecError("'seed' must be an integer")
        rules = [_parse_rule(entry, i) for i, entry in enumerate(rules_raw)]
        return cls(rules, seed=seed)

    @classmethod
    def from_text(cls, text: str) -> "FaultPlan":
        """Parse inline JSON text, or ``@path`` / a readable path to a file."""
        candidate = text.strip()
        if candidate.startswith("@"):
            candidate = candidate[1:]
        if not candidate.lstrip().startswith(("{", "[")) and os.path.isfile(candidate):
            with open(candidate, encoding="utf-8") as handle:
                candidate = handle.read()
        try:
            spec = json.loads(candidate)
        except json.JSONDecodeError as error:
            raise ChaosSpecError(
                f"chaos spec is neither valid JSON nor a readable file: {error}"
            ) from None
        return cls.from_spec(spec)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        text = os.environ.get(CHAOS_ENV)
        return cls.from_text(text) if text else None

    # ------------------------------------------------------------------ #
    # Injection
    # ------------------------------------------------------------------ #

    def maybe_fail(self, point: str) -> None:
        """Fire any matching rules: sleep, then raise (at most one exception)."""
        delay = 0.0
        raising: FaultRule | None = None
        with self._lock:
            for rule in self.rules:
                if not fnmatch.fnmatchcase(point, rule.point):
                    continue
                rule.seen += 1
                if rule.seen <= rule.skip:
                    continue
                if rule.count is not None and rule.fired >= rule.count:
                    continue
                if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                _INJECTIONS_TOTAL.inc(point=point, mode=rule.mode)
                delay = max(delay, rule.latency_s)
                if rule.exception is not None and raising is None:
                    raising = rule
        if delay > 0:
            time.sleep(delay)
        if raising is not None:
            raise _EXCEPTIONS[raising.exception](
                f"{raising.message} [chaos point={point}]"
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules],
                "fired": sum(rule.fired for rule in self.rules),
            }


# --------------------------------------------------------------------------- #
# The process-wide plan
# --------------------------------------------------------------------------- #

#: Sentinel: the environment has not been consulted yet.
_UNRESOLVED = object()
_plan: Any = _UNRESOLVED
_plan_lock = threading.Lock()


def install_plan(plan: FaultPlan | None) -> None:
    """Install (or, with ``None``, disable) the process-wide fault plan."""
    global _plan
    with _plan_lock:
        _plan = plan


def clear_plan() -> None:
    """Remove any installed plan and forget the environment resolution."""
    global _plan
    with _plan_lock:
        _plan = _UNRESOLVED


def get_plan() -> FaultPlan | None:
    """The active plan: installed one, else lazily resolved from the env."""
    global _plan
    if _plan is _UNRESOLVED:
        with _plan_lock:
            if _plan is _UNRESOLVED:
                _plan = FaultPlan.from_env()
    return _plan


def maybe_fail(point: str) -> None:
    """Injection-point hook: no-op unless an active plan matches ``point``.

    The disabled path is one global read and an identity check — cheap
    enough to sit inside journal writes and HTTP dispatch.
    """
    if _plan is None:  # fast path: chaos explicitly off
        return
    plan = get_plan()
    if plan is not None:
        plan.maybe_fail(point)
