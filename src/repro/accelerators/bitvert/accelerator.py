"""BitVert accelerator performance model (Figure 10 and Section V).

BitVert combines three effects, all modelled here:

* **runtime BBS skipping** — every weight bit column costs one cycle instead
  of two, because after the per-sub-group direction choice at most half of the
  column's bits are effectual and the 8 lanes (plus the subtractor path) cover
  all 16 weights in a single cycle;
* **binary pruning** — compressed groups store only ``8 - pruned`` columns, so
  they finish in ``max(2, 8 - pruned)`` cycles and fetch proportionally fewer
  weight bytes (plus one metadata byte per group);
* **channel reordering** — sensitive (8-bit) channels are processed in their
  own chunks, so mixing precisions does not create inter-PE stalls.

The accelerator applies the paper's hardware-aware global binary pruning
(Algorithm 2) to the whole model before evaluating it; the conservative and
moderate presets of Section V-A are the two configurations reported in
Figures 12/13.
"""

from __future__ import annotations

import copy
from typing import Mapping

import numpy as np

from ..area_power import PEDesign, bitvert_pe
from ..common import BitSerialAccelerator, GroupCycleStats
from ...core.binary_pruning import PrunedTensor, prune_tensor
from ...core.bitplane import column_ones
from ...core.encoding import METADATA_BITS
from ...core.global_pruning import (
    MODERATE_PRESET,
    PruningPreset,
    global_binary_prune,
)
from ...nn.model_zoo import ModelSpec
from ...nn.synthetic import LayerWeights
from ...nn.workloads import GemmWorkload

__all__ = ["BitVertAccelerator"]


class BitVertAccelerator(BitSerialAccelerator):
    """The paper's accelerator: BBS skipping + binary pruning + reordering."""

    name = "BitVert"

    def __init__(
        self,
        preset: PruningPreset = MODERATE_PRESET,
        sub_group: int = 8,
        min_cycles_per_group: int = 2,
        weight_bits: int = 8,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.preset = preset
        self.sub_group = sub_group
        self.min_cycles_per_group = min_cycles_per_group
        self.weight_bits = weight_bits
        self.name = f"BitVert ({preset.name})"
        #: Compressions by layer digest: the last :meth:`compress_model`'s,
        #: then stand-alone ones made by :meth:`run_layer`.
        self._compressed: dict[str, PrunedTensor] = {}

    def pe_design(self) -> PEDesign:
        return bitvert_pe(sub_group=self.sub_group, optimized=True)

    # ------------------------------------------------------------- compression
    def compress_model(
        self, model: ModelSpec, weights: Mapping[str, LayerWeights]
    ) -> dict[str, PrunedTensor]:
        """Run global binary pruning over all layers and cache the result.

        Returns the compressions by layer name; later :meth:`run_layer` calls
        on any of these layers reuse them.
        """
        layer_weights = {name: lw.int_weights for name, lw in weights.items()}
        channel_scores = {name: lw.channel_scores for name, lw in weights.items()}
        result = global_binary_prune(
            layer_weights,
            channel_scores,
            preset=self.preset,
            keep_original=False,
            weights_digests={name: lw.digest for name, lw in weights.items()},
        )
        self._compressed = {
            weights[name].digest: pruned for name, pruned in result.pruned_layers.items()
        }
        return dict(result.pruned_layers)

    def for_model(
        self, model: ModelSpec, weights: Mapping[str, LayerWeights]
    ) -> "BitVertAccelerator":
        """A copy holding this model's global pruning (Algorithm 2)."""
        scoped = copy.copy(self)
        scoped.compress_model(model, weights)
        return scoped

    def _layer_compression(self, layer: LayerWeights) -> PrunedTensor:
        if layer.digest in self._compressed:
            return self._compressed[layer.digest]
        # Stand-alone layer evaluation: select the sensitive channels locally.
        scores = np.asarray(layer.channel_scores, dtype=np.float64)
        count = int(np.ceil(self.preset.beta * scores.size))
        sensitive = np.zeros(scores.size, dtype=bool)
        if count:
            sensitive[np.argsort(-scores, kind="stable")[:count]] = True
        compressed = prune_tensor(
            layer.int_weights,
            num_columns=self.preset.num_columns,
            strategy=self.preset.strategy,
            group_size=self.preset.group_size,
            bits=self.weight_bits,
            sensitive_channels=sensitive,
            keep_original=False,
            weights_digest=layer.digest,
        )
        self._compressed[layer.digest] = compressed
        return compressed

    # ------------------------------------------------------------------ cycles
    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        compressed = self._layer_compression(layer)
        pe_group = self.array.pe_group_size
        lanes = self.array.lanes_per_pe

        pruned_per_group = compressed.num_redundant + compressed.num_sparse
        channels, encoding_groups = pruned_per_group.shape
        sensitive = ~compressed.pruned_channel_mask  # True = 8-bit channel

        # Cycles per PE group: stored columns for pruned channels, the full
        # word width for sensitive channels (runtime BBS still gives one cycle
        # per column).  Each encoding group (32 weights) spans two PE groups
        # (16 weights) with the same column count.
        pe_groups_per_encoding_group = max(1, self.preset.group_size // pe_group)
        stored_columns = self.weight_bits - pruned_per_group
        stored_columns = np.where(
            sensitive[:, None], self.weight_bits, stored_columns
        )
        actual = np.maximum(self.min_cycles_per_group, stored_columns)
        actual = np.repeat(actual.reshape(-1), pe_groups_per_encoding_group).astype(np.float64)
        partition = np.repeat(
            np.broadcast_to(sensitive[:, None], (channels, encoding_groups)).reshape(-1),
            pe_groups_per_encoding_group,
        ).astype(np.int64)

        # Lower bound: the BBS-effectual (per-sub-group minority) bits of the
        # pruned weights, spread over the lanes.
        minimal = self._minimal_cycles(compressed.values, lanes)
        minimal = np.minimum(self._match_group_counts(actual, minimal), actual)
        return GroupCycleStats(actual=actual, minimal=minimal, partition=partition)

    def _minimal_cycles(self, pruned_weights: np.ndarray, lanes: int) -> np.ndarray:
        """Per-PE-group lower bound from the per-sub-group minority bit counts."""
        pe_group = self.array.pe_group_size
        weights = np.asarray(pruned_weights)
        lo, hi = -(1 << (self.weight_bits - 1)), (1 << (self.weight_bits - 1)) - 1
        weights = np.clip(weights, lo, hi)
        channels, reduction = weights.shape
        usable = reduction - (reduction % pe_group)
        if usable == 0:
            padded = np.zeros((channels, pe_group), dtype=weights.dtype)
            padded[:, :reduction] = weights
            groups = padded
        else:
            groups = weights[:, :usable].reshape(-1, pe_group)
        num_groups = groups.shape[0]
        sub_groups = pe_group // self.sub_group
        ones = column_ones(
            groups.reshape(num_groups, sub_groups, self.sub_group), self.weight_bits
        )
        minority = np.minimum(ones, self.sub_group - ones)
        effectual = minority.sum(axis=(1, 2))
        minimal = np.ceil(effectual / lanes)
        return np.maximum(minimal, 1.0).astype(np.float64)

    def _match_group_counts(self, actual: np.ndarray, minimal: np.ndarray) -> np.ndarray:
        if minimal.size == actual.size:
            return minimal
        # The encoding-group expansion and the PE-group reshape can disagree by
        # a few groups when the sampled reduction is not a multiple of the
        # encoding group size; resample the smaller array to match.
        if minimal.size == 0:
            return np.ones_like(actual)
        indices = np.linspace(0, minimal.size - 1, actual.size).astype(np.int64)
        return minimal[indices]

    # ------------------------------------------------------------------ memory
    def stored_weight_bytes(self, workload: GemmWorkload, layer: LayerWeights) -> float:
        compressed = self._layer_compression(layer)
        bits_per_weight = self._effective_bits(compressed)
        return workload.weight_count * bits_per_weight / 8.0

    def _effective_bits(self, compressed: PrunedTensor) -> float:
        pruned_per_group = compressed.num_redundant + compressed.num_sparse
        sensitive = ~compressed.pruned_channel_mask
        group = compressed.group_size
        stored_bits = (self.weight_bits - pruned_per_group) * group + METADATA_BITS
        dense_bits = self.weight_bits * group
        per_group_bits = np.where(sensitive[:, None], dense_bits, stored_bits)
        return float(per_group_bits.mean()) / group
