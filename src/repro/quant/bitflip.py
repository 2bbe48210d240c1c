"""BitWave-style sign-magnitude zero-column bit-flip pruning.

BitWave [39] (and the earlier bit-column pruning works the paper cites as
"previous" in Figure 1b) compresses an INT8 weight group by storing it in
sign-magnitude format and pruning bit columns that are entirely zero.  Because
DNN weights are small, the high-significance magnitude columns of a group are
often already all-zero ("inherent" zero columns); to reach a target number of
pruned columns, the remaining low-significance columns are force-flipped to
zero.  Unlike BBS, only the *zero* direction can be pruned, so every forced
column removes quantization levels (all odd values disappear when the LSB
column is flipped, and so on).

This module implements that strategy so the paper's KL-divergence (Fig. 6) and
accuracy (Fig. 11) comparisons against BBS can be reproduced, and so the
BitWave accelerator model has a matching compression front end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitplane import (
    from_sign_magnitude_planes,
    int_range,
    to_sign_magnitude_planes,
)
from ..core.encoding import group_storage_bits
from ..core.grouping import GroupedTensor, group_weights, ungroup_weights
from ..core.metrics import ReconstructionMetricsMixin

__all__ = ["BitFlipResult", "bitflip_group", "bitflip_tensor"]


@dataclass
class BitFlipResult(ReconstructionMetricsMixin):
    """A weight matrix after BitWave-style zero-column bit-flip pruning."""

    values: np.ndarray
    num_columns: int
    group_size: int
    inherent_zero_columns: np.ndarray
    forced_zero_columns: np.ndarray
    pruned_channel_mask: np.ndarray
    bits: int = 8
    original: np.ndarray | None = None

    def storage_bits(self) -> int:
        """Total storage in bits, pricing metadata like the BBS encoding.

        BitWave stores one small per-group descriptor indicating which columns
        were dropped; we charge the same 8 bits per compressed group as BBS so
        the footprint comparison is apples-to-apples.
        """
        channels, num_groups = self.inherent_zero_columns.shape
        pruned = int(np.count_nonzero(self.pruned_channel_mask))
        compressed = group_storage_bits(self.group_size, self.num_columns, self.bits)
        dense = self.group_size * self.bits
        return num_groups * (pruned * compressed + (channels - pruned) * dense)

    def effective_bits(self) -> float:
        channels, num_groups = self.inherent_zero_columns.shape
        num_weights = channels * num_groups * self.group_size
        if num_weights == 0:
            return 0.0
        return self.storage_bits() / num_weights

    def extra_scalars(self) -> dict[str, float]:
        return {
            "inherent_zero_columns": float(self.inherent_zero_columns.sum()),
            "forced_zero_columns": float(self.forced_zero_columns.sum()),
        }


def bitflip_group(group: np.ndarray, num_columns: int, bits: int = 8) -> tuple[np.ndarray, int, int]:
    """Prune ``num_columns`` zero columns from one group in sign-magnitude format.

    Returns ``(pruned_values, inherent, forced)`` where ``inherent`` counts the
    columns that were already all-zero (free to drop) and ``forced`` the
    columns whose one-bits had to be flipped to zero.
    """
    group = np.asarray(group).astype(np.int64)
    if group.ndim != 1:
        raise ValueError(f"expected a 1-D group, got shape {group.shape}")
    _check_num_columns(num_columns, bits)
    values, inherent, forced = _bitflip_batch(group[None, :], num_columns, bits)
    return values[0], int(inherent[0]), int(forced[0])


def _check_num_columns(num_columns: int, bits: int) -> None:
    """Only magnitude columns can be pruned: the sign column always stays."""
    if num_columns < 0 or num_columns > bits - 1:
        raise ValueError(
            f"num_columns must be in [0, {bits - 1}] for sign-magnitude pruning, "
            f"got {num_columns}"
        )


def _bitflip_batch(
    groups: np.ndarray, num_columns: int, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized zero-column pruning over ``(num_groups, group_size)`` groups.

    Works on magnitudes directly: a group's inherent zero columns are the
    leading zero bits of the OR of its magnitudes, and flipping the
    ``forced`` least significant magnitude columns to zero is a right then
    left shift.  Bit-identical to :func:`_bitflip_batch_reference`.
    """
    groups = np.asarray(groups, dtype=np.int64)
    lo, hi = int_range(bits)
    if groups.size and (groups.min() < lo or groups.max() > hi):
        raise ValueError(f"values outside the {bits}-bit range [{lo}, {hi}]")
    groups = np.where(groups == lo, lo + 1, groups)  # -128 has no sign-magnitude form
    magnitude = np.abs(groups)
    # bit_length of each group's OR: how many powers of two 1, 2, 4, ... it reaches.
    used = np.bitwise_or.reduce(magnitude, axis=1, initial=0)
    powers = np.left_shift(1, np.arange(bits - 1, dtype=np.int64))
    inherent_run = (bits - 1) - np.searchsorted(powers, used, side="right")
    inherent = np.minimum(inherent_run, num_columns).astype(np.int64)
    forced = (num_columns - inherent).astype(np.int64)
    shift = forced[:, None]
    pruned = (magnitude >> shift) << shift
    values = np.where(groups < 0, -pruned, pruned)
    return values, inherent, forced


def _bitflip_batch_reference(
    groups: np.ndarray, num_columns: int, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-plane implementation: the oracle :func:`_bitflip_batch` matches."""
    lo = -(1 << (bits - 1))
    groups = np.where(groups == lo, lo + 1, groups)  # -128 has no sign-magnitude form
    planes = to_sign_magnitude_planes(groups, bits)  # (G, N, bits), col 0 = sign
    magnitude = planes[:, :, 1:]  # (G, N, bits - 1), MSB first
    column_has_one = magnitude.any(axis=1)  # (G, bits - 1)

    # Inherent zero columns: contiguous run of all-zero columns starting at the
    # most significant magnitude column (these are what sign-magnitude storage
    # drops for free).
    inherent_run = np.cumprod(~column_has_one, axis=1).sum(axis=1)
    inherent = np.minimum(inherent_run, num_columns).astype(np.int64)
    forced = (num_columns - inherent).astype(np.int64)

    # Flip the `forced` least significant magnitude columns of every group to
    # zero.  A column at index c (0 = sign, bits-1 = LSB) is flipped when
    # c >= bits - forced; the comparison below vectorizes that per group.
    column_index = np.arange(bits)[None, None, :]
    flip_mask = column_index >= (bits - forced[:, None, None])
    pruned_planes = np.where(flip_mask, 0, planes).astype(np.uint8)
    values = from_sign_magnitude_planes(pruned_planes)
    return values, inherent, forced


def bitflip_tensor(
    weights: np.ndarray,
    num_columns: int,
    group_size: int = 32,
    bits: int = 8,
    sensitive_channels: np.ndarray | None = None,
    keep_original: bool = True,
) -> BitFlipResult:
    """Apply BitWave-style zero-column pruning to a whole weight matrix.

    Mirrors :func:`repro.core.binary_pruning.prune_tensor` so the two methods
    can be compared with identical sensitive-channel handling.
    """
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    if not np.issubdtype(weights.dtype, np.integer):
        raise TypeError("bit-flip pruning operates on integer (quantized) weights")
    _check_num_columns(num_columns, bits)

    grouped = group_weights(weights, group_size)
    channels, num_groups, _ = grouped.groups.shape
    if sensitive_channels is None:
        sensitive = np.zeros(channels, dtype=bool)
    else:
        sensitive = np.asarray(sensitive_channels, dtype=bool)
        if sensitive.shape != (channels,):
            raise ValueError(
                f"sensitive_channels must have shape ({channels},), got {sensitive.shape}"
            )
    prune_mask = ~sensitive

    flat = grouped.groups.reshape(channels * num_groups, group_size).astype(np.int64)
    flat_mask = np.repeat(prune_mask, num_groups)
    pruned_flat = flat.copy()
    inherent = np.zeros(channels * num_groups, dtype=np.int64)
    forced = np.zeros(channels * num_groups, dtype=np.int64)

    if num_columns > 0 and flat_mask.any():
        values, inh, frc = _bitflip_batch(flat[flat_mask], num_columns, bits)
        pruned_flat[flat_mask] = values
        inherent[flat_mask] = inh
        forced[flat_mask] = frc

    pruned_grouped = GroupedTensor(
        groups=pruned_flat.reshape(channels, num_groups, group_size),
        original_shape=grouped.original_shape,
        group_size=group_size,
        pad=grouped.pad,
    )
    return BitFlipResult(
        values=ungroup_weights(pruned_grouped),
        num_columns=num_columns,
        group_size=group_size,
        inherent_zero_columns=inherent.reshape(channels, num_groups),
        forced_zero_columns=forced.reshape(channels, num_groups),
        pruned_channel_mask=prune_mask,
        bits=bits,
        original=weights.copy() if keep_original else None,
    )
