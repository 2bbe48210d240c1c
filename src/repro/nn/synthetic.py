"""Synthetic weight and activation generation.

The paper's results depend on the statistical shape of per-channel-quantized
INT8 DNN weights — Gaussian-like, mostly small in magnitude, with a minority
of outlier-heavy channels that dominate the per-channel scaling factors — and
on the value sparsity of activations (high after ReLU in CNNs, essentially
zero after GELU in transformers).  Because the pre-trained checkpoints cannot
be shipped, this module draws weights and activations with those statistics:

* per-channel Gaussian weights whose standard deviation follows fan-in
  (He-style) scaling,
* a configurable fraction of *outlier channels* with several-fold larger
  spread (these become the "sensitive channels" that global pruning protects),
* a heavy-tail component inside every channel so the per-channel max sits a
  realistic 3.5-4.5 sigma above the bulk (this controls the INT8 bit-sparsity
  level, which Figure 3 shows to be ~50 % in two's complement and 60-65 % in
  sign-magnitude),
* ReLU-sparse integer activations for CNN layers and dense, GELU-shaped
  activations for transformer layers.

Large layers can be subsampled (both channels and reduction) while keeping the
full dimensions on record, so that even Llama-3-8B can be analysed in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .model_zoo import LayerSpec, ModelSpec
from ..core.hashing import stable_digest
from ..core.memo import get_memo
from ..quant.ptq import QuantizedTensor, quantize_per_channel

__all__ = [
    "WeightStatistics",
    "LayerWeights",
    "ModelWeights",
    "DEFAULT_CNN_STATS",
    "DEFAULT_TRANSFORMER_STATS",
    "synthesize_float_weights",
    "synthesize_layer",
    "synthesize_model",
    "synthesize_activations",
    "layer_digests",
    "weights_key",
]


@dataclass(frozen=True)
class WeightStatistics:
    """Knobs controlling the synthetic weight distribution of one model family."""

    outlier_channel_fraction: float = 0.08
    outlier_scale: float = 3.5
    heavy_tail_fraction: float = 0.01
    heavy_tail_scale: float = 4.0
    relative_max_sigma: float = 4.0

    def validate(self) -> None:
        if not 0.0 <= self.outlier_channel_fraction <= 1.0:
            raise ValueError("outlier_channel_fraction must be in [0, 1]")
        if not 0.0 <= self.heavy_tail_fraction <= 1.0:
            raise ValueError("heavy_tail_fraction must be in [0, 1]")


#: CNN weights: moderate outlier channels, noticeable heavy tails per channel.
DEFAULT_CNN_STATS = WeightStatistics(
    outlier_channel_fraction=0.08,
    outlier_scale=3.5,
    heavy_tail_fraction=0.012,
    heavy_tail_scale=4.0,
)

#: Transformer weights: fewer but stronger outlier channels (attention/FFN
#: projections are known for a small set of very large-magnitude channels).
DEFAULT_TRANSFORMER_STATS = WeightStatistics(
    outlier_channel_fraction=0.05,
    outlier_scale=5.0,
    heavy_tail_fraction=0.008,
    heavy_tail_scale=5.0,
)


@dataclass
class LayerWeights:
    """Synthetic weights of one layer, possibly subsampled.

    Attributes
    ----------
    spec:
        The layer shape this tensor realizes.
    quantized:
        Per-channel INT8 :class:`~repro.quant.ptq.QuantizedTensor` of shape
        ``(sampled_channels, sampled_reduction)``.
    float_weights:
        The floating-point weights the INT8 tensor was quantized from.
    sample_fraction:
        Fraction of the layer's true weight count represented by the sample
        (1.0 when the layer was generated in full).
    repeat:
        How many identical layers in the model this tensor stands for.
    digest:
        Content digest of ``spec``, ``quantized`` (values, scales, bits,
        per-channel flag), ``sample_fraction`` and ``repeat``, computed once
        at construction.  The arrays are frozen (``writeable=False``) at the
        same time, so the digest stays valid and memo keys can use it instead
        of re-hashing the weights.  ``float_weights`` is not read by any
        evaluation and is left out.
    """

    spec: LayerSpec
    quantized: QuantizedTensor
    float_weights: np.ndarray
    sample_fraction: float
    repeat: int = 1
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        for array in (self.quantized.values, self.quantized.scales, self.float_weights):
            array.flags.writeable = False
        self.digest = stable_digest(
            "LayerWeights", self.spec, self.quantized, self.sample_fraction, self.repeat
        )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def int_weights(self) -> np.ndarray:
        return self.quantized.values

    @property
    def channel_scores(self) -> np.ndarray:
        """Per-channel sensitivity proxy: the per-channel quantization scale."""
        return self.quantized.scales

    @property
    def full_weight_count(self) -> int:
        return self.spec.weight_count * self.repeat


def layer_digests(weights: Mapping[str, LayerWeights]) -> list[tuple[str, str]]:
    """Ordered ``(layer name, layer digest)`` pairs: the content key of a model's weights."""
    return [(name, layer.digest) for name, layer in weights.items()]


class ModelWeights(Mapping[str, LayerWeights]):
    """Read-only ``layer name -> LayerWeights`` mapping of one synthesized model.

    It carries :attr:`digest`, one digest over its :func:`layer_digests`
    pairs, computed once at construction; the mapping rejects item
    assignment and its layers' arrays are frozen, so the digest cannot go
    stale.  Memo keys of whole-model evaluations use it (see
    :func:`weights_key`) instead of re-hashing every layer.
    """

    __slots__ = ("_layers", "_digest")

    def __init__(self, layers: Mapping[str, LayerWeights]):
        self._layers = dict(layers)
        self._digest = stable_digest("ModelWeights", layer_digests(self._layers))

    @property
    def digest(self) -> str:
        return self._digest

    def __getitem__(self, name: str) -> LayerWeights:
        return self._layers[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __contains__(self, name: object) -> bool:
        return name in self._layers

    def keys(self):
        return self._layers.keys()

    def items(self):
        return self._layers.items()

    def values(self):
        return self._layers.values()


def weights_key(weights: Mapping[str, LayerWeights]) -> str | list[tuple[str, str]]:
    """The memo-key part for a model's weights.

    A :class:`ModelWeights` gives its carried digest, so keying
    :func:`synthesize_model` output costs nothing per layer.  Any other
    mapping (a plain dict, a subset, a copy with a layer replaced) gives its
    current :func:`layer_digests` pairs.  The two forms hash apart, so such a
    mapping never shares a memo entry with synthesized weights.
    """
    if isinstance(weights, ModelWeights):
        return weights.digest
    return layer_digests(weights)


def _stats_for_family(family: str) -> WeightStatistics:
    if family == "cnn":
        return DEFAULT_CNN_STATS
    return DEFAULT_TRANSFORMER_STATS


def synthesize_float_weights(
    channels: int,
    reduction: int,
    rng: np.random.Generator,
    stats: WeightStatistics = DEFAULT_CNN_STATS,
) -> np.ndarray:
    """Draw a ``(channels, reduction)`` float weight matrix with DNN-like statistics."""
    stats.validate()
    base_sigma = np.sqrt(2.0 / max(1, reduction))
    channel_sigma = np.full(channels, base_sigma)
    num_outliers = int(round(stats.outlier_channel_fraction * channels))
    if num_outliers:
        outlier_rows = rng.choice(channels, size=num_outliers, replace=False)
        channel_sigma[outlier_rows] *= stats.outlier_scale

    weights = rng.normal(0.0, 1.0, size=(channels, reduction)) * channel_sigma[:, None]
    if stats.heavy_tail_fraction > 0:
        tail_mask = rng.random((channels, reduction)) < stats.heavy_tail_fraction
        tail = rng.normal(0.0, stats.heavy_tail_scale, size=(channels, reduction))
        weights = np.where(tail_mask, weights * np.abs(tail) + weights, weights)
    return weights


def _sampled_dims(
    spec: LayerSpec, max_channels: int, max_reduction: int, group_size: int
) -> tuple[int, int, float]:
    """Choose sampled (channels, reduction) dims and the represented fraction."""
    channels = spec.gemm_n
    reduction = spec.gemm_k
    sampled_channels = min(channels, max_channels)
    sampled_reduction = min(reduction, max_reduction)
    # Keep the reduction a multiple of the group size whenever the original is.
    if sampled_reduction >= group_size:
        sampled_reduction -= sampled_reduction % group_size
    fraction = (sampled_channels * sampled_reduction) / float(channels * reduction)
    return sampled_channels, sampled_reduction, fraction


def synthesize_layer(
    spec: LayerSpec,
    rng: np.random.Generator,
    stats: WeightStatistics | None = None,
    family: str = "cnn",
    max_channels: int = 512,
    max_reduction: int = 4096,
    group_size: int = 32,
) -> LayerWeights:
    """Generate synthetic per-channel INT8 weights for one layer spec.

    The returned layer's arrays are read-only and it carries its content
    digest (see :class:`LayerWeights`).
    """
    stats = stats or _stats_for_family(family)
    channels, reduction, fraction = _sampled_dims(
        spec, max_channels, max_reduction, group_size
    )
    float_weights = synthesize_float_weights(channels, reduction, rng, stats)
    quantized = quantize_per_channel(float_weights, bits=8)
    return LayerWeights(
        spec=spec,
        quantized=quantized,
        float_weights=float_weights,
        sample_fraction=fraction,
        repeat=spec.repeat,
    )


def synthesize_model(
    model: ModelSpec,
    seed: int = 0,
    stats: WeightStatistics | None = None,
    max_channels: int = 512,
    max_reduction: int = 4096,
    group_size: int = 32,
) -> ModelWeights:
    """Generate synthetic weights for every (unique) layer of a model.

    Returns a read-only :class:`ModelWeights` keyed by layer name, in the
    model's layer order, carrying the digest of its layers.  The seed is
    derived per layer so adding or removing layers does not reshuffle the
    weights of the others.

    Generation is deterministic in its arguments, so results are memoized
    process-wide (see :mod:`repro.core.memo`): the same model/seed/caps
    combination is synthesized once no matter how many experiments ask for it.
    """
    memo = get_memo()
    memo_key = None
    if memo.enabled:
        memo_key = stable_digest(
            "synthesize_model",
            model.digest,
            seed,
            stats,
            max_channels,
            max_reduction,
            group_size,
        )
        cached = memo.models.get(memo_key)
        if cached is not None:
            return cached

    weights: dict[str, LayerWeights] = {}
    for index, layer in enumerate(model.layers):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        weights[layer.name] = synthesize_layer(
            layer,
            rng,
            stats=stats,
            family=model.family,
            max_channels=max_channels,
            max_reduction=max_reduction,
            group_size=group_size,
        )
    result = ModelWeights(weights)
    if memo_key is not None:
        memo.models.put(memo_key, result)
    return result


def synthesize_activations(
    spec: LayerSpec,
    rng: np.random.Generator,
    family: str = "cnn",
    count: int | None = None,
    bits: int = 8,
) -> np.ndarray:
    """Draw synthetic INT8 activations feeding one layer.

    CNN layers receive post-ReLU activations: non-negative, with the value
    sparsity typical of the family (40-50 % zeros).  Transformer layers
    receive GELU-shaped activations: dense, slightly left-skewed, signed.
    """
    if count is None:
        count = min(spec.gemm_k, 4096)
    hi = (1 << (bits - 1)) - 1
    if family == "cnn":
        values = rng.normal(0.0, hi / 3.0, size=count)
        values = np.where(values > 0, values, 0.0)
        # Random extra zeroing models pooling / bias effects on sparsity.
        drop = rng.random(count) < 0.1
        values = np.where(drop, 0.0, values)
        return np.clip(np.round(values), 0, hi).astype(np.int64)
    values = rng.normal(0.0, hi / 4.0, size=count)
    gelu_like = np.where(values < 0, values * 0.15, values)
    return np.clip(np.round(gelu_like), -(hi + 1), hi).astype(np.int64)
