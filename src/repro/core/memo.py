"""In-process artifact memo: content-hash reuse of expensive pipeline stages.

The 16 experiment functions repeatedly synthesize the same model weights and
re-compress the same layers: every ``BenchmarkSuite`` figure builds BitVert
accelerators that :func:`~repro.core.global_pruning.global_binary_prune` the
same seven models, and the KL/accuracy studies prune identical layers under
identical presets.  PR 1's service cache deduplicates whole *jobs* from the
outside; this memo deduplicates the *artifacts inside* them, so a cold job is
fast too.

Three :class:`~repro.core.cache.ResultCache` instances (the PR 1 machinery,
memory-only) are keyed by :func:`~repro.core.hashing.stable_digest` of the
full input:

* ``models`` — ``synthesize_model`` outputs, keyed by the model spec's
  digest, seed, statistics, and sampling caps;
* ``tensors`` — ``prune_tensor`` results, keyed by the weight array (or the
  carried digest of a synthesized layer) and the complete pruning
  configuration (columns, strategy, group size, word width, sensitive-channel
  mask);
* ``evaluations`` — whole-model results of the deterministic evaluators,
  through :func:`memoized_evaluation`: ``Accelerator.run_model`` keyed by the
  accelerator's configuration (design class, array, memory, design
  parameters), the model spec's digest and the weights' key, and the
  figure 11/16 model compressions keyed by the method, group size and the
  same weights' key.  The key is per model, not per layer, because
  BitVert selects its sensitive channels across the whole model.  Figure
  11's end-to-end MLP study is one entry too: its rows, keyed by the whole
  ``MLPStudy`` record that drives it (dataset arguments, hidden sizes,
  epochs, batch size, learning rate, compressor line-up and seed), so a warm
  figure 11 neither builds the dataset nor trains nor compresses.

Keys cost O(1) in model size, because the digests are carried, not
recomputed:

* a layer digest is computed once, when ``synthesize_layer`` builds the
  :class:`~repro.nn.synthetic.LayerWeights`, whose arrays are then frozen
  (``writeable=False``), so the digest cannot go stale;
* ``synthesize_model`` returns a read-only
  :class:`~repro.nn.synthetic.ModelWeights` carrying one digest over its
  ordered ``(layer name, layer digest)`` pairs, and that digest is the
  weights' key (:func:`~repro.nn.synthetic.weights_key`).  A plain dict
  or any other mapping is keyed by its current pairs instead, so it never
  shares an entry with synthesized weights;
* ``ModelSpec.digest`` is cached on the frozen spec, and ``get_model``
  returns one shared spec per name, so it is computed once per process.

What is left to hash per lookup is small (an accelerator configuration, a
method name); :func:`~repro.core.hashing.stable_digest` encodes it into one
byte string and hashes that once.

Cache invalidation is therefore automatic: any change to any input — a
different seed, cap, preset, mask, or a single weight — produces a different
digest and a fresh computation.  ``tensors`` and ``evaluations`` entries keep
private copies and hits return fresh copies, so callers may freely mutate a
``PrunedTensor`` or ``ModelPerformance`` they receive.  ``models`` entries
share their (large) ``LayerWeights`` objects across hits to avoid copying
whole models per experiment; their frozen arrays make that safe.

The memo is per-process (worker processes build their own) and is enabled by
default; set ``REPRO_MEMO=0`` to disable it, or use :func:`memo_disabled` to
suspend it in a scope (benchmarks measuring cold kernels do this); both, and
:func:`clear_memo`, cover all three caches.  Capacity is bounded LRU; tune
the first two with ``REPRO_MEMO_MODELS`` / ``REPRO_MEMO_TENSORS``.
``evaluations`` holds :data:`EVALUATION_ENTRIES` small records, several
times what one ``repro all`` run stores.
"""

from __future__ import annotations

import copy
import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

from .cache import MISSING, ResultCache
from .hashing import stable_digest

__all__ = [
    "ArtifactMemo",
    "get_memo",
    "memo_stats",
    "clear_memo",
    "memo_disabled",
    "memoized_evaluation",
    "EVALUATION_ENTRIES",
]

T = TypeVar("T")

#: Capacity of the ``evaluations`` cache.  Its entries are model-level
#: summaries (a few kB each), far fewer than one ``repro all`` run makes.
EVALUATION_ENTRIES = 1024


def _env_int(name: str, default: int) -> int:
    try:
        value = int(os.environ.get(name, ""))
    except ValueError:
        return default
    return value if value > 0 else default


def _env_enabled() -> bool:
    return os.environ.get("REPRO_MEMO", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


class ArtifactMemo:
    """LRU memo for synthesized models, compressed tensors and whole-model
    evaluations."""

    def __init__(
        self,
        max_models: int | None = None,
        max_tensors: int | None = None,
        enabled: bool | None = None,
    ):
        self.models = ResultCache(
            max_entries=max_models or _env_int("REPRO_MEMO_MODELS", 32)
        )
        self.tensors = ResultCache(
            max_entries=max_tensors or _env_int("REPRO_MEMO_TENSORS", 256)
        )
        self.evaluations = ResultCache(max_entries=EVALUATION_ENTRIES)
        self.enabled = _env_enabled() if enabled is None else enabled

    def stats(self) -> dict:
        """Hit/miss/store counters per artifact kind (for tests and the API)."""
        return {
            "enabled": self.enabled,
            "models": self.models.stats(),
            "tensors": self.tensors.stats(),
            "evaluations": self.evaluations.stats(),
        }

    def clear(self) -> None:
        """Drop every memoized artifact and reset the hit/miss counters."""
        self.models = ResultCache(max_entries=self.models.max_entries)
        self.tensors = ResultCache(max_entries=self.tensors.max_entries)
        self.evaluations = ResultCache(max_entries=EVALUATION_ENTRIES)


_MEMO = ArtifactMemo()


def get_memo() -> ArtifactMemo:
    """The process-wide artifact memo."""
    return _MEMO


def memo_stats() -> dict:
    return _MEMO.stats()


def clear_memo() -> None:
    _MEMO.clear()


@contextmanager
def memo_disabled() -> Iterator[None]:
    """Temporarily bypass the memo (cold-path benchmarks and golden tests)."""
    previous = _MEMO.enabled
    _MEMO.enabled = False
    try:
        yield
    finally:
        _MEMO.enabled = previous


def memoized_evaluation(
    key: tuple[Any, ...],
    compute: Callable[[], T],
    clone: Callable[[T], T] = copy.deepcopy,
) -> T:
    """``compute()``, memoized in ``evaluations`` under ``stable_digest(*key)``.

    ``key`` must hold everything the result depends on.  The memo keeps a
    private ``clone`` (a deep copy by default) and every hit returns a fresh
    one, so a caller that mutates its result cannot poison later hits.
    """
    memo = _MEMO
    if not memo.enabled:
        return compute()
    digest = stable_digest("evaluation", *key)
    cached = memo.evaluations.get(digest, MISSING)
    if cached is not MISSING:
        return clone(cached)
    result = compute()
    memo.evaluations.put(digest, clone(result))
    return result
