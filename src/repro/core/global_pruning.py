"""Hardware-aware global binary pruning (Section III-C, Algorithm 2).

Binary pruning at the group level is lossy, and some weight channels (e.g.
convolution filters with large-magnitude outliers) are much more sensitive to
that loss than others.  The paper identifies sensitive channels globally —
across all layers at once — using the per-channel quantization scaling factors
as a magnitude proxy, keeps the top ``beta`` fraction of channels at full
8-bit precision, and prunes the rest.  To keep the hardware busy, the number
of sensitive channels in every layer is rounded up to a multiple of ``CH``,
the number of channels the accelerator processes in parallel (32 for
BitVert).

This module implements the channel-selection logic and a whole-model driver
that combines it with :func:`repro.core.binary_pruning.prune_tensor`.  The two
pruning presets evaluated in the paper are provided as
:data:`CONSERVATIVE_PRESET` (10 % sensitive channels, 2 columns pruned by
rounded averaging) and :data:`MODERATE_PRESET` (20 % sensitive channels, 4
columns pruned by zero-point shifting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binary_pruning import PrunedTensor, prune_tensor
from .encoding import PruningStrategy

__all__ = [
    "PruningPreset",
    "CONSERVATIVE_PRESET",
    "MODERATE_PRESET",
    "select_sensitive_channels",
    "global_binary_prune",
    "GlobalPruningResult",
]


@dataclass(frozen=True)
class PruningPreset:
    """A named global-pruning configuration (Section V-A)."""

    name: str
    beta: float
    num_columns: int
    strategy: PruningStrategy
    group_size: int = 32
    channel_parallelism: int = 32

    def describe(self) -> str:
        return (
            f"{self.name}: {self.beta:.0%} sensitive channels at 8-bit, "
            f"{self.num_columns} columns pruned via {self.strategy.value} "
            f"(group {self.group_size}, CH {self.channel_parallelism})"
        )


#: Conservative pruning: 10 % sensitive channels, 2 columns, rounded averaging.
CONSERVATIVE_PRESET = PruningPreset(
    name="conservative",
    beta=0.10,
    num_columns=2,
    strategy=PruningStrategy.ROUNDED_AVERAGE,
)

#: Moderate pruning: 20 % sensitive channels, 4 columns, zero-point shifting.
MODERATE_PRESET = PruningPreset(
    name="moderate",
    beta=0.20,
    num_columns=4,
    strategy=PruningStrategy.ZERO_POINT_SHIFT,
)


@dataclass
class GlobalPruningResult:
    """Output of :func:`global_binary_prune` for a whole model."""

    pruned_layers: dict[str, PrunedTensor]
    sensitive_masks: dict[str, np.ndarray]
    preset: PruningPreset

    def total_storage_bits(self) -> int:
        return sum(layer.storage_bits() for layer in self.pruned_layers.values())

    def total_dense_bits(self) -> int:
        return sum(layer.dense_storage_bits() for layer in self.pruned_layers.values())

    def compression_ratio(self) -> float:
        compressed = self.total_storage_bits()
        if compressed == 0:
            return float("inf")
        return self.total_dense_bits() / compressed

    def effective_bits(self) -> float:
        weights = sum(
            layer.values.size for layer in self.pruned_layers.values()
        )
        if weights == 0:
            return 0.0
        return self.total_storage_bits() / weights

    def mean_mse(self) -> float:
        layers = list(self.pruned_layers.values())
        if not layers:
            return 0.0
        return float(np.mean([layer.mse() for layer in layers]))

    def mean_kl_divergence(self) -> float:
        layers = list(self.pruned_layers.values())
        if not layers:
            return 0.0
        return float(np.mean([layer.kl_divergence() for layer in layers]))

    def sensitive_fraction(self) -> float:
        total = sum(mask.size for mask in self.sensitive_masks.values())
        sensitive = sum(int(mask.sum()) for mask in self.sensitive_masks.values())
        return sensitive / total if total else 0.0


def select_sensitive_channels(
    channel_scores: dict[str, np.ndarray],
    beta: float,
    channel_parallelism: int = 32,
) -> dict[str, np.ndarray]:
    """Select sensitive channels globally and align per-layer counts to ``CH``.

    Parameters
    ----------
    channel_scores:
        Per-layer 1-D arrays of channel sensitivity scores.  The paper uses
        the per-channel quantization scaling factor; any magnitude proxy
        (channel standard deviation, max absolute value) works the same way.
    beta:
        Minimum global fraction of channels kept sensitive (at full
        precision).
    channel_parallelism:
        ``CH`` in Algorithm 2 — sensitive-channel counts per layer are rounded
        up to a multiple of this so reordered chunks fill the PE array.

    Returns
    -------
    dict[str, numpy.ndarray]
        Boolean mask per layer, ``True`` marking sensitive channels.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if channel_parallelism <= 0:
        raise ValueError("channel_parallelism must be positive")
    if not channel_scores:
        return {}

    # Global sort: channels from every layer compete on the same score scale.
    entries: list[tuple[float, str, int]] = []
    for layer_name, scores in channel_scores.items():
        scores = np.asarray(scores, dtype=np.float64)
        for index, score in enumerate(scores):
            entries.append((float(score), layer_name, index))
    entries.sort(key=lambda item: item[0], reverse=True)

    total_channels = len(entries)
    num_global_sensitive = int(np.ceil(beta * total_channels))
    globally_sensitive: dict[str, set[int]] = {name: set() for name in channel_scores}
    for _score, layer_name, index in entries[:num_global_sensitive]:
        globally_sensitive[layer_name].add(index)

    masks: dict[str, np.ndarray] = {}
    for layer_name, scores in channel_scores.items():
        scores = np.asarray(scores, dtype=np.float64)
        num_channels = scores.size
        count = len(globally_sensitive[layer_name])
        if count > 0 or beta > 0.0:
            # Round the per-layer count up to a multiple of CH (never past the
            # layer size); if the layer got no globally sensitive channels it
            # still contributes at least zero — the paper only aligns layers
            # that have at least one sensitive channel, and so do we.
            if count > 0:
                aligned = int(np.ceil(count / channel_parallelism)) * channel_parallelism
                count = min(aligned, num_channels)
        order = np.argsort(-scores, kind="stable")
        mask = np.zeros(num_channels, dtype=bool)
        mask[order[:count]] = True
        masks[layer_name] = mask
    return masks


def global_binary_prune(
    layer_weights: dict[str, np.ndarray],
    channel_scores: dict[str, np.ndarray],
    preset: PruningPreset = MODERATE_PRESET,
    bits: int = 8,
    keep_original: bool = True,
    weights_digests: dict[str, str] | None = None,
) -> GlobalPruningResult:
    """Apply hardware-aware global binary pruning to a whole model.

    Parameters
    ----------
    layer_weights:
        Per-layer integer weight matrices of shape ``(channels, reduction)``.
    channel_scores:
        Per-layer channel sensitivity scores (same keys, length = channels).
    preset:
        Pruning configuration (:data:`CONSERVATIVE_PRESET` or
        :data:`MODERATE_PRESET`, or a custom :class:`PruningPreset`).
    weights_digests:
        Optional per-layer content digests of ``layer_weights`` (synthesized
        layers carry one), passed on to :func:`prune_tensor` so it need not
        hash the arrays.
    """
    missing = set(layer_weights) - set(channel_scores)
    if missing:
        raise ValueError(f"missing channel scores for layers: {sorted(missing)}")
    for name, weights in layer_weights.items():
        scores = np.asarray(channel_scores[name])
        if scores.shape[0] != np.asarray(weights).shape[0]:
            raise ValueError(
                f"layer {name!r}: {weights.shape[0]} channels but "
                f"{scores.shape[0]} scores"
            )

    masks = select_sensitive_channels(
        {name: channel_scores[name] for name in layer_weights},
        beta=preset.beta,
        channel_parallelism=preset.channel_parallelism,
    )
    pruned_layers: dict[str, PrunedTensor] = {}
    for name, weights in layer_weights.items():
        pruned_layers[name] = prune_tensor(
            weights,
            num_columns=preset.num_columns,
            strategy=preset.strategy,
            group_size=preset.group_size,
            bits=bits,
            sensitive_channels=masks[name],
            keep_original=keep_original,
            weights_digest=(weights_digests or {}).get(name),
        )
    return GlobalPruningResult(
        pruned_layers=pruned_layers, sensitive_masks=masks, preset=preset
    )
