"""Unified tensor-level binary pruning (Section III-B).

This module ties the two group-level strategies (rounded averaging and
zero-point shifting) together behind one API that operates on a whole weight
matrix: it groups the tensor, prunes every group, tracks the per-group
metadata, and reports the compression statistics (storage bits, effective
bits/weight, MSE, KL divergence) that the paper's accuracy and footprint
results are built on.

It also provides the BBS *dot-product identities* (Equations 1-3): helpers
that compute a dot product through the bi-directional bit-serial formulation
and through the compressed encoding, used by the tests to show the hardware
computation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .bitplane import to_bitplanes, column_weights
from .encoding import (
    METADATA_BITS,
    PrunedGroup,
    PruningStrategy,
)
from .grouping import GroupedTensor, group_weights, ungroup_weights
from .hashing import stable_digest
from .memo import get_memo
from .rounded_average import rounded_average_groups
from .zero_point_shift import zero_point_shift_groups

__all__ = [
    "PrunedTensor",
    "prune_tensor",
    "prune_group",
    "bbs_dot_product",
    "compressed_dot_product",
]


@dataclass
class PrunedTensor(metrics.ReconstructionMetricsMixin):
    """A whole weight matrix after binary pruning.

    Attributes
    ----------
    values:
        Pruned weight matrix with the same shape as the input.
    strategy:
        Strategy used for the pruned groups.
    num_columns:
        Target number of pruned columns per group.
    group_size:
        Dot-product group size.
    num_redundant:
        ``(channels, num_groups)`` per-group redundant-column counts.
    num_sparse:
        ``(channels, num_groups)`` per-group generated sparse-column counts.
    constants:
        ``(channels, num_groups)`` per-group BBS constants.
    pruned_channel_mask:
        Boolean per-channel mask; ``False`` marks sensitive channels kept at
        full precision (used by global pruning).
    bits:
        Weight word width.
    """

    values: np.ndarray
    strategy: PruningStrategy
    num_columns: int
    group_size: int
    num_redundant: np.ndarray
    num_sparse: np.ndarray
    constants: np.ndarray
    pruned_channel_mask: np.ndarray
    bits: int = 8
    original: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    @property
    def num_groups_per_channel(self) -> int:
        return self.num_redundant.shape[1]

    def storage_bits(self) -> int:
        """Total storage of the compressed matrix in bits (payload + metadata)."""
        per_group_pruned = self.num_redundant + self.num_sparse
        # Vectorized per-group form of :func:`group_storage_bits`: unpruned
        # groups carry no metadata word.
        per_group = np.where(
            per_group_pruned > 0,
            self.group_size * (self.bits - per_group_pruned) + METADATA_BITS,
            self.group_size * self.bits,
        )
        dense_channel = self.num_groups_per_channel * self.group_size * self.bits
        per_channel = np.where(
            self.pruned_channel_mask, per_group.sum(axis=1), dense_channel
        )
        return int(per_channel.sum())

    def dense_storage_bits(self) -> int:
        """Storage of the uncompressed matrix in bits (grouped / padded layout)."""
        return self.num_channels * self.num_groups_per_channel * self.group_size * self.bits

    def compression_ratio(self) -> float:
        """Dense size divided by compressed size (> 1 means smaller)."""
        compressed = self.storage_bits()
        if compressed == 0:
            return float("inf")
        return self.dense_storage_bits() / compressed

    def effective_bits(self) -> float:
        """Average stored bits per weight, including metadata."""
        num_weights = self.num_channels * self.num_groups_per_channel * self.group_size
        if num_weights == 0:
            return 0.0
        return self.storage_bits() / num_weights

    def kl_divergence(self) -> float:
        """KL divergence of the value histogram against the original tensor."""
        if self.original is None:
            return 0.0
        return metrics.kl_divergence(self.original, self.values)

    def extra_scalars(self) -> dict[str, float]:
        return {"compression_ratio": float(self.compression_ratio())}

    def content_digest(self) -> str:
        """Stable hex digest of the compressed contents + pruning configuration.

        Two :func:`prune_tensor` calls on identical inputs produce identical
        digests, so the digest can key result caches and deduplicate work (the
        ``original`` tensor is deliberately excluded: it does not affect the
        compressed artifact).
        """
        from .hashing import stable_digest

        return stable_digest(
            "PrunedTensor",
            self.values,
            self.strategy,
            self.num_columns,
            self.group_size,
            self.num_redundant,
            self.num_sparse,
            self.constants,
            self.pruned_channel_mask,
            self.bits,
        )


def prune_group(
    group: np.ndarray,
    num_columns: int,
    strategy: PruningStrategy | str = PruningStrategy.ROUNDED_AVERAGE,
    bits: int = 8,
) -> PrunedGroup:
    """Prune a single group with the requested strategy.

    Thin convenience wrapper over
    :func:`repro.core.rounded_average.rounded_average_group` and
    :func:`repro.core.zero_point_shift.zero_point_shift_group`.
    """
    from .rounded_average import rounded_average_group
    from .zero_point_shift import zero_point_shift_group

    strategy = PruningStrategy(strategy)
    if strategy is PruningStrategy.ROUNDED_AVERAGE:
        return rounded_average_group(group, num_columns, bits=bits)
    if strategy is PruningStrategy.ZERO_POINT_SHIFT:
        return zero_point_shift_group(group, num_columns, bits=bits)
    raise ValueError(f"cannot prune with strategy {strategy}")


def prune_tensor(
    weights: np.ndarray,
    num_columns: int,
    strategy: PruningStrategy | str = PruningStrategy.ROUNDED_AVERAGE,
    group_size: int = 32,
    bits: int = 8,
    sensitive_channels: np.ndarray | None = None,
    keep_original: bool = True,
    weights_digest: str | None = None,
) -> PrunedTensor:
    """Apply binary pruning to a 2-D integer weight matrix.

    Parameters
    ----------
    weights:
        ``(channels, reduction)`` integer weight matrix (use
        :func:`repro.nn.workloads.layer_weight_matrix` to flatten conv
        weights).
    num_columns:
        Bit columns to prune per group.
    strategy:
        ``"rounded_average"`` or ``"zero_point_shift"``.
    group_size:
        Weights per dot-product group (32 in all paper experiments).
    sensitive_channels:
        Optional boolean array of length ``channels``; ``True`` entries are
        *not* pruned (they stay at full precision).  Produced by
        :mod:`repro.core.global_pruning`.
    keep_original:
        Keep a copy of the original matrix to enable MSE/KL reporting.
    weights_digest:
        A content digest that determines ``weights`` and that the caller
        already has (a synthesized layer's
        :attr:`~repro.nn.synthetic.LayerWeights.digest`).  The memo then keys
        on it instead of hashing the array.
    """
    strategy = PruningStrategy(strategy)
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weights.shape}")
    if not np.issubdtype(weights.dtype, np.integer):
        raise TypeError("binary pruning operates on integer (quantized) weights")

    channels = weights.shape[0]
    if sensitive_channels is None:
        sensitive = np.zeros(channels, dtype=bool)
    else:
        sensitive = np.asarray(sensitive_channels, dtype=bool)
        if sensitive.shape != (channels,):
            raise ValueError(
                f"sensitive_channels must have shape ({channels},), got {sensitive.shape}"
            )

    # Content-hash memo: identical (weights, configuration) pairs are
    # compressed once per process; ``keep_original`` is deliberately outside
    # the key because it does not affect the compressed artifact.  A carried
    # digest (a string) and an array are tagged apart by ``stable_digest``.
    memo = get_memo()
    memo_key = None
    if memo.enabled:
        content = weights if weights_digest is None else weights_digest
        memo_key = stable_digest(
            "prune_tensor", content, num_columns, strategy, group_size, bits, sensitive
        )
        cached = memo.tensors.get(memo_key)
        if cached is not None:
            return _copy_pruned(cached, weights, keep_original)

    grouped = group_weights(weights, group_size)
    channels, num_groups, _ = grouped.groups.shape

    prune_mask = ~sensitive
    flat = grouped.groups.reshape(channels * num_groups, group_size).astype(np.int64)
    flat_prune_mask = np.repeat(prune_mask, num_groups)

    pruned_flat = flat.copy()
    redundant = np.zeros(channels * num_groups, dtype=np.int64)
    sparse = np.zeros(channels * num_groups, dtype=np.int64)
    constants = np.zeros(channels * num_groups, dtype=np.int64)

    target_groups = flat[flat_prune_mask]
    if target_groups.size and num_columns > 0:
        if strategy is PruningStrategy.ROUNDED_AVERAGE:
            values, red, spr, const = rounded_average_groups(
                target_groups, num_columns, bits=bits
            )
        elif strategy is PruningStrategy.ZERO_POINT_SHIFT:
            values, red, spr, const = zero_point_shift_groups(
                target_groups, num_columns, bits=bits
            )
        else:
            raise ValueError(f"cannot prune with strategy {strategy}")
        pruned_flat[flat_prune_mask] = values
        redundant[flat_prune_mask] = red
        sparse[flat_prune_mask] = spr
        constants[flat_prune_mask] = const

    pruned_grouped = GroupedTensor(
        groups=pruned_flat.reshape(channels, num_groups, group_size),
        original_shape=grouped.original_shape,
        group_size=group_size,
        pad=grouped.pad,
    )
    pruned_values = ungroup_weights(pruned_grouped)

    result = PrunedTensor(
        values=pruned_values,
        strategy=strategy,
        num_columns=num_columns,
        group_size=group_size,
        num_redundant=redundant.reshape(channels, num_groups),
        num_sparse=sparse.reshape(channels, num_groups),
        constants=constants.reshape(channels, num_groups),
        pruned_channel_mask=prune_mask,
        bits=bits,
        original=weights.copy() if keep_original else None,
    )
    if memo_key is not None:
        # Snapshot with private arrays and no original, so later mutation of
        # the returned tensor cannot poison the memo.
        memo.tensors.put(memo_key, _copy_pruned(result, weights, False))
    return result


def _copy_pruned(
    pruned: PrunedTensor, weights: np.ndarray, keep_original: bool
) -> PrunedTensor:
    """Independent copy of a memoized :class:`PrunedTensor` (arrays included)."""
    return replace(
        pruned,
        values=pruned.values.copy(),
        num_redundant=pruned.num_redundant.copy(),
        num_sparse=pruned.num_sparse.copy(),
        constants=pruned.constants.copy(),
        pruned_channel_mask=pruned.pruned_channel_mask.copy(),
        original=weights.copy() if keep_original else None,
    )


def bbs_dot_product(weights: np.ndarray, activations: np.ndarray, bits: int = 8) -> int:
    """Compute a dot product through the BBS bit-serial formulation (Eq. 1-3).

    For every bit column the partial sum is computed through whichever side of
    the identity touches fewer bits: summing the activations under one-bits
    when ones are the minority, or subtracting the activations under zero-bits
    from the group activation sum when zeros are the minority.  The result is
    exactly ``weights @ activations``; the point of this function is that the
    tests can assert the bi-directional trick is lossless.
    """
    weights = np.asarray(weights).astype(np.int64)
    activations = np.asarray(activations).astype(np.int64)
    if weights.shape != activations.shape or weights.ndim != 1:
        raise ValueError("weights and activations must be 1-D arrays of equal length")
    planes = to_bitplanes(weights, bits)  # (N, bits)
    place = column_weights(bits, signed=True)
    act_sum = int(activations.sum())
    total = 0
    for column in range(bits):
        bit_vector = planes[:, column]
        ones = int(bit_vector.sum())
        if ones <= len(bit_vector) - ones:
            partial = int(activations[bit_vector == 1].sum())
        else:
            partial = act_sum - int(activations[bit_vector == 0].sum())
        total += int(place[column]) * partial
    return total


def compressed_dot_product(
    pruned: PrunedGroup, activations: np.ndarray
) -> int:
    """Dot product as the BitVert PE computes it from the compressed encoding.

    The stored bit columns contribute through bit-serial accumulation and the
    BBS constant contributes through a single multiplication with the group
    activation sum (Step 4 of the PE in Figure 7).  Equals
    ``pruned.values @ activations`` exactly.
    """
    activations = np.asarray(activations).astype(np.int64)
    values = np.asarray(pruned.values).astype(np.int64)
    if activations.shape != values.shape:
        raise ValueError("activations must match the group size")
    act_sum = int(activations.sum())

    if pruned.strategy is PruningStrategy.ZERO_POINT_SHIFT:
        stored = values + pruned.constant
        constant_term = -pruned.constant * act_sum
    elif pruned.strategy is PruningStrategy.ROUNDED_AVERAGE:
        low_block = 1 << pruned.num_sparse if pruned.num_sparse else 1
        stored = values - pruned.constant
        if pruned.num_sparse and np.any(stored % low_block != 0):
            raise ValueError("rounded-average group is not aligned to its constant")
        constant_term = pruned.constant * act_sum
    else:
        stored = values
        constant_term = 0

    serial_term = bbs_dot_product(stored, activations, bits=pruned.bits)
    return serial_term + constant_term
