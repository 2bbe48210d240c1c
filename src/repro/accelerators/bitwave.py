"""BitWave [39]: bit-column-serial accelerator with sign-magnitude bit-flip.

BitWave stores weights in sign-magnitude format and processes one bit *column*
of a weight group per step: a column that is entirely zero is skipped (and not
even stored), every other column is processed densely.  Its software bit-flip
pass forces additional low-significance columns to zero to increase the number
of skippable columns, at some accuracy cost (the zero-column-only pruning the
BBS paper compares against).

Performance characteristics captured by this model:

* structured, per-group-uniform cycle counts → good load balance,
* two cycles per surviving column (a column of ``pe_group_size`` weights is
  processed densely by ``lanes_per_pe`` bit-serial multipliers, with no
  skipping of the zero bits inside a kept column),
* compressed weight storage: only surviving columns are written to memory,
  plus one metadata byte per group.
"""

from __future__ import annotations

import numpy as np

from .area_power import PEDesign, bitwave_pe
from .common import BitSerialAccelerator, GroupCycleStats
from ..core.encoding import METADATA_BITS
from ..nn.synthetic import LayerWeights
from ..nn.workloads import GemmWorkload
from ..quant.bitflip import bitflip_tensor

__all__ = ["BitWaveAccelerator"]


class BitWaveAccelerator(BitSerialAccelerator):
    """Bit-column-serial accelerator with zero-column (bit-flip) pruning."""

    name = "BitWave"

    def __init__(
        self,
        pruned_columns: int = 3,
        sensitive_fraction: float = 0.10,
        weight_bits: int = 8,
        **kwargs,
    ) -> None:
        """
        Parameters
        ----------
        pruned_columns:
            Zero columns enforced per weight group by the bit-flip pass.  The
            paper notes BitWave must stay conservative (its aggressive setting
            loses > 1 % accuracy), so the default is 3.
        sensitive_fraction:
            Fraction of channels kept unpruned, mirroring the sensitive-channel
            protection all methods are granted in the comparison.
        """
        super().__init__(**kwargs)
        self.pruned_columns = pruned_columns
        self.sensitive_fraction = sensitive_fraction
        self.weight_bits = weight_bits
        # ``run_layer`` asks for the column stats of the same layer twice
        # (cycles, then stored bytes): keep the last result.
        self._last_column_stats: tuple | None = None

    def pe_design(self) -> PEDesign:
        return bitwave_pe()

    # ------------------------------------------------------------------ helpers
    def _sensitive_mask(self, layer: LayerWeights) -> np.ndarray:
        scores = np.asarray(layer.channel_scores, dtype=np.float64)
        count = int(np.ceil(self.sensitive_fraction * scores.size))
        mask = np.zeros(scores.size, dtype=bool)
        if count:
            mask[np.argsort(-scores, kind="stable")[:count]] = True
        return mask

    def _pruned_groups(self, layer: LayerWeights) -> np.ndarray:
        """Bit-flipped weights as ``(groups, pe_group_size)`` rows.

        A channel shorter than one PE group is zero-padded to a full group;
        otherwise a trailing partial group is left out.
        """
        pruned = bitflip_tensor(
            layer.int_weights,
            num_columns=self.pruned_columns,
            group_size=self.array.pe_group_size,
            bits=self.weight_bits,
            sensitive_channels=self._sensitive_mask(layer),
            keep_original=False,
        ).values
        group = self.array.pe_group_size
        channels, reduction = pruned.shape
        usable = reduction - (reduction % group)
        if usable == 0:
            padded = np.zeros((channels, group), dtype=pruned.dtype)
            padded[:, :reduction] = pruned
            return padded
        return pruned[:, :usable].reshape(-1, group)

    def _column_stats(self, layer: LayerWeights) -> tuple[np.ndarray, np.ndarray]:
        """Kept sign-magnitude columns and one-bits per PE group.

        The sign column is kept when any weight is negative; a magnitude
        column is kept when any magnitude has that bit set, so the kept
        magnitude columns are the set bits of the OR of the magnitudes.
        """
        config = (
            self.pruned_columns,
            self.sensitive_fraction,
            self.weight_bits,
            self.array.pe_group_size,
        )
        last = self._last_column_stats
        if last is not None and last[0] is layer and last[1] == config:
            return last[2]
        groups = self._pruned_groups(layer)
        lo = -(1 << (self.weight_bits - 1))
        groups = np.where(groups == lo, lo + 1, groups)
        magnitude = np.abs(groups)
        negative = groups < 0
        kept = negative.any(axis=1) + np.bitwise_count(np.bitwise_or.reduce(magnitude, axis=1))
        ones = negative.sum(axis=1) + np.bitwise_count(magnitude).sum(axis=1, dtype=np.int64)
        stats = np.maximum(kept, 1).astype(np.int64), ones
        self._last_column_stats = (layer, config, stats)
        return stats

    def _group_partition(self, layer: LayerWeights) -> np.ndarray:
        """Scheduling-class label per PE group (sensitive vs pruned channels).

        BitWave's structured (column-level) compression keeps the column
        counts of a layer's pruned channels aligned, and its memory layout
        separates precision classes, so sensitive and pruned channels are not
        co-scheduled in the same wave.
        """
        mask = self._sensitive_mask(layer)
        group = self.array.pe_group_size
        reduction = layer.int_weights.shape[1]
        groups_per_channel = max(1, reduction // group)
        return np.repeat(mask.astype(np.int64), groups_per_channel)

    # ----------------------------------------------------------------- hooks
    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        kept, total_ones = self._column_stats(layer)
        cycles_per_column = self.array.pe_group_size / self.array.lanes_per_pe
        actual = kept.astype(np.float64) * cycles_per_column
        partition = self._group_partition(layer)
        if partition.size != actual.size:
            partition = None

        # Lower bound: the one-bits actually present, spread over all lanes.
        minimal = np.ceil(total_ones / self.array.lanes_per_pe).astype(np.float64)
        minimal = np.minimum(np.maximum(minimal, 1.0), actual)
        return GroupCycleStats(actual=actual, minimal=minimal, partition=partition)

    def stored_weight_bytes(self, workload: GemmWorkload, layer: LayerWeights) -> float:
        kept, _ = self._column_stats(layer)
        group = self.array.pe_group_size
        bits_per_group = kept.astype(np.float64) * group + METADATA_BITS
        mean_bits_per_weight = float(bits_per_group.mean()) / group
        return workload.weight_count * mean_bits_per_weight / 8.0
