"""In-process artifact memo: content-hash reuse of expensive pipeline stages.

The 16 experiment functions repeatedly synthesize the same model weights and
re-compress the same layers: every ``BenchmarkSuite`` figure builds BitVert
accelerators that :func:`~repro.core.global_pruning.global_binary_prune` the
same seven models, and the KL/accuracy studies prune identical layers under
identical presets.  PR 1's service cache deduplicates whole *jobs* from the
outside; this memo deduplicates the *artifacts inside* them, so a cold job is
fast too.

Two :class:`~repro.core.cache.ResultCache` instances (the PR 1 machinery,
memory-only) are keyed by :func:`~repro.core.hashing.stable_digest` of the
full input:

* ``models`` — ``synthesize_model`` outputs, keyed by the model spec, seed,
  statistics, and sampling caps; and trained ``MLPClassifier`` weights and
  biases with their test accuracy (figure 11), keyed by the layer sizes, the
  starting weights and biases, the four dataset arrays, and the epochs,
  batch size, learning rate and shuffle seed;
* ``tensors`` — ``prune_tensor`` results, keyed by the layer digest and the
  complete pruning configuration (columns, strategy, group size, word width,
  sensitive-channel mask).

Cache invalidation is therefore automatic: any change to any input — a
different seed, cap, preset, mask, or a single weight — produces a different
digest and a fresh computation.  ``tensors`` entries keep private array
copies and hits return fresh copies, so callers may freely mutate a
``PrunedTensor`` they receive.  ``models`` entries share their (large)
``LayerWeights`` objects across hits to avoid copying whole models per
experiment; treat synthesized weights as read-only, as every caller in the
repository does.  Trained-MLP entries keep private copies, and a hit copies
them into the classifier's own arrays.

The memo is per-process (worker processes build their own) and is enabled by
default; set ``REPRO_MEMO=0`` to disable it, or use :func:`memo_disabled` to
suspend it in a scope (benchmarks measuring cold kernels do this).  Capacity
is bounded LRU; tune with ``REPRO_MEMO_MODELS`` / ``REPRO_MEMO_TENSORS``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .cache import ResultCache

__all__ = [
    "ArtifactMemo",
    "get_memo",
    "memo_stats",
    "clear_memo",
    "memo_disabled",
]


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
    """LRU memo for synthesized models, trained MLPs and compressed tensors."""

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
        self.enabled = _env_enabled() if enabled is None else enabled

    def stats(self) -> dict:
        """Hit/miss/store counters per artifact kind (for tests and the API)."""
        return {
            "enabled": self.enabled,
            "models": self.models.stats(),
            "tensors": self.tensors.stats(),
        }

    def clear(self) -> None:
        """Drop every memoized artifact and reset the hit/miss counters."""
        self.models = ResultCache(max_entries=self.models.max_entries)
        self.tensors = ResultCache(max_entries=self.tensors.max_entries)


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
