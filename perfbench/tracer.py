"""Out-of-process-code span recorder for the traced benchmark run.

The benchmark never edits ``src/`` and never reads ``repro.obs``: this module
wraps the program's public entry points from the outside, records one span
per call in memory, and turns the spans into per-layer numbers when the run
ends.  A later change to the program's own instrumentation therefore cannot
change what the benchmark measures.

Wrapping a function replaces the name in *every* loaded ``repro`` module that
holds it (``from .ptq import optimal_clip_scale`` copies the object into the
importer, so patching only the defining module would miss those callers).
Wrapping a method patches the class that defines it and every subclass that
overrides it.

Attribution (:func:`attribute`) splits the traced wall time into layers so
that the parts add up exactly: each instant goes to the innermost span of
the threads doing traced work at that instant, split evenly between them.
A thread that is inside an HTTP round trip (``client.request``) or a sleep
is waiting for another thread, so it yields the instant to threads doing
work and only keeps it when nothing else is traced.  On one thread this is
the usual self time, span minus children.  Instants no span covers are
``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Every layer the per-layer metrics name, in report order.
LAYERS = (
    "nn", "quant", "core", "accelerators", "eval", "codecs",
    "service", "node", "gateway", "client", "campaign",
)

#: Module-level functions: (module, attribute, span name).  The layer is the
#: span name's prefix.
FUNCTIONS = (
    ("repro.nn.synthetic", "synthesize_model", "nn.synthesize"),
    ("repro.quant.ptq", "optimal_clip_scale", "quant.clip_search"),
    ("repro.quant.bitflip", "bitflip_tensor", "quant.bitflip"),
    ("repro.core.binary_pruning", "prune_tensor", "core.prune"),
    ("repro.core.global_pruning", "global_binary_prune", "core.global_prune"),
    ("repro.eval.experiments", "figure11_accuracy", "eval.figure11"),
    ("repro.eval.experiments", "figure12_speedup", "eval.figure12"),
    ("repro.eval.experiments", "figure13_energy", "eval.figure13"),
    ("repro.eval.experiments", "figure16_pareto", "eval.figure16"),
    ("repro.campaign.spec", "expand_spec", "campaign.expand"),
)

#: Methods: (module, class, method, span name).  Subclass overrides are
#: wrapped under the same span name.
METHODS = (
    ("repro.nn.trainer", "MLPClassifier", "train", "nn.train"),
    ("repro.accelerators.common", "Accelerator", "run_model", "accelerators.run_model"),
    ("repro.codecs.base", "Codec", "instrumented_compress", "codecs.compress"),
    ("repro.service.workers", "WorkerPool", "submit", "service.pool_submit"),
    ("repro.service.registry", "ScenarioRegistry", "run", "service.run_job"),
    ("repro.service.journal", "JobJournal", "record", "service.journal_append"),
    ("repro.gateway.ring", "HashRing", "route", "gateway.route"),
    ("repro.gateway.replication", "ReplicaStore", "record_submit", "gateway.replica_record"),
    ("repro.service.client", "ServiceClient", "request", "client.request"),
    ("http.client", "HTTPConnection", "connect", "client.connect"),
    ("repro.campaign.runner", "CampaignRunner", "checkpoint", "campaign.checkpoint"),
    ("repro.campaign.runner", "CampaignRunner", "write_report", "campaign.report"),
    ("repro.campaign.dispatch", "CampaignDispatcher", "run", "campaign.dispatch"),
)

#: Spans whose thread is blocked on another thread for most of the span.
WAITING = frozenset({"client.request", "sleep"})

#: HTTP verbs whose ``do_<VERB>`` handler methods are wrapped.
HTTP_VERBS = ("GET", "POST", "PUT", "DELETE")

_ABSENT = object()


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    seq: int
    start: int
    end: int
    #: An outer span of the same name is open on this thread (``super()``
    #: calls); such spans are not counted as calls.
    nested: bool


class Tracer:
    """Records spans around wrapped callables while :attr:`active`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.missing: list[str] = []
        self._local = threading.local()
        self._seq = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        nested = name in stack
        seq = next(self._seq)
        stack.append(name)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(name, layer, threading.get_ident(), seq, start, end, nested)
            )

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, layer, fn, args, kwargs)

        return traced

    def _patch(self, owner, attribute: str, value) -> None:
        """Set ``owner.attribute``; an inherited one is shadowed, not edited."""
        self._patches.append((owner, attribute, owner.__dict__.get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self, http_servers=()) -> None:
        """Wrap every entry point; ``http_servers`` maps server -> layer."""
        for module_name, attribute, name in FUNCTIONS:
            original = getattr(_import(module_name), attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            wrapped = self.wrap(name, original)
            for module in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        for module_name, class_name, method, name in METHODS:
            cls = getattr(_import(module_name), class_name, None)
            if not callable(getattr(cls, method, None)):
                self.missing.append(f"{module_name}.{class_name}.{method}")
                continue
            for owner in [cls, *_subclasses(cls)]:
                if owner is cls or method in owner.__dict__:
                    self._patch(owner, method, self.wrap(name, getattr(owner, method)))
        for server, layer in dict(http_servers).items():
            self._wrap_handler(server.RequestHandlerClass, server, layer)
        self._patch(time, "sleep", self._sleep(time.sleep))
        self.active = True

    def _wrap_handler(self, handler_cls, server, layer: str) -> None:
        """Wrap ``do_<VERB>``; the layer follows the serving instance, so a
        handler class shared by node and gateway is still told apart."""
        layers = handler_cls.__dict__.get("_perfbench_layers")
        if layers is None:
            layers = {}
            for verb in HTTP_VERBS:
                method = getattr(handler_cls, f"do_{verb}", None)
                if method is not None:
                    self._patch(handler_cls, f"do_{verb}", self._handler(method, layers))
            self._patch(handler_cls, "_perfbench_layers", layers)
        layers[id(server)] = layer

    def _handler(self, method, layers: dict):
        @functools.wraps(method)
        def traced(handler, *args, **kwargs):
            layer = layers.get(id(handler.server), "node")
            return self._record(f"{layer}.http", layer, method, (handler, *args), kwargs)

        return traced

    def _sleep(self, sleep):
        """A sleep inside a traced call is that layer waiting (e.g. a poll)."""

        @functools.wraps(sleep)
        def traced(seconds):
            stack = self._stack() if self.active else None
            if not stack:
                return sleep(seconds)
            layer = stack[-1].split(".", 1)[0]
            return self._record("sleep", layer, sleep, (seconds,), {})

        return traced

    def uninstall(self) -> None:
        """Stop recording and restore every patched attribute."""
        self.active = False
        for owner, attribute, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def span_cost_s(calls: int = 50_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop():
        return None

    probe = Tracer()
    probe.active = True
    traced = probe.wrap("probe.noop", noop)
    start = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    plain = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter_ns() - start
    return max(wrapped - plain, 0) / calls / 1e9


# ---------------------------------------------------------------------- #
# Attribution
# ---------------------------------------------------------------------- #


@dataclass
class Attribution:
    wall_s: float
    unattributed_s: float
    #: Attributed (self) seconds per layer and per span name.
    layer_s: dict
    name_s: dict
    #: Non-nested calls and their summed inclusive seconds, per span name.
    calls: dict
    inclusive_s: dict


def attribute(spans: list[Span], window_start: int, window_end: int) -> Attribution:
    """Split ``[window_start, window_end]`` (perf_counter ns) over the spans.

    Spans are clipped to the window; per-thread nesting survives clipping.
    The returned self times plus ``unattributed_s`` equal ``wall_s``.
    """
    kept: list[tuple[Span, int, int]] = []
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = max(span.start, window_start), min(span.end, window_end)
        if end <= start:
            continue
        if not span.nested:
            calls[span.name] += 1
            inclusive[span.name] += (span.end - span.start) / 1e9
        kept.append((span, start, end))
    events = []
    for index, (span, start, end) in enumerate(kept):
        # At equal times: ends before starts, outer starts first, inner
        # ends first -- the order a single thread produced them in.
        events.append((start, 1, span.seq, index))
        events.append((end, 0, -span.seq, index))
    events.sort()

    stacks: dict[int, list[int]] = defaultdict(list)
    working: set[int] = set()
    waiting: set[int] = set()
    self_ns = [0.0] * len(kept)
    unattributed = 0.0
    previous = window_start
    for moment, kind, _, index in events:
        gap = moment - previous
        if gap > 0:
            owners = working or waiting
            if owners:
                share = gap / len(owners)
                for thread in owners:
                    self_ns[stacks[thread][-1]] += share
            else:
                unattributed += gap
        previous = moment
        thread = kept[index][0].thread
        stack = stacks[thread]
        if kind == 1:
            stack.append(index)
        elif stack[-1] == index:
            stack.pop()
        else:
            stack.remove(index)
        working.discard(thread)
        waiting.discard(thread)
        if stack:
            top = kept[stack[-1]][0]
            (waiting if top.name in WAITING else working).add(thread)
    unattributed += window_end - previous

    layer_s: dict[str, float] = defaultdict(float)
    name_s: dict[str, float] = defaultdict(float)
    for (span, _, _), seconds in zip(kept, self_ns):
        layer_s[span.layer] += seconds / 1e9
        name_s[span.name] += seconds / 1e9
    return Attribution(
        wall_s=(window_end - window_start) / 1e9,
        unattributed_s=unattributed / 1e9,
        layer_s=dict(layer_s),
        name_s=dict(name_s),
        calls=dict(calls),
        inclusive_s=dict(inclusive),
    )
