"""Bitlet [26]: bit-significance-parallel (sparsity parallelism) accelerator.

Bitlet assigns one lane to every bit significance: a lane absorbs, one per
cycle, the essential bits of *any* weight in the group at its significance
(hence the 64:1 activation mux the paper calls out).  A group is finished when
the significance with the most one-bits has drained, so the PE-level latency
is the maximum column population — a different load-imbalance axis than
Pragmatic's.  Like Pragmatic, all weight bits are fetched from memory.
"""

from __future__ import annotations

import numpy as np

from .area_power import PEDesign, bitlet_pe
from .common import BitSerialAccelerator, GroupCycleStats
from ..core.bitplane import column_ones
from ..nn.synthetic import LayerWeights

__all__ = ["BitletAccelerator"]


class BitletAccelerator(BitSerialAccelerator):
    """Bit-significance-parallel zero-bit-skipping accelerator."""

    name = "Bitlet"

    def __init__(self, weight_bits: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.weight_bits = weight_bits

    def pe_design(self) -> PEDesign:
        return bitlet_pe()

    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        groups = self.layer_groups(layer)
        lanes = self.array.lanes_per_pe

        ones_per_significance = column_ones(groups, self.weight_bits)  # (G, bits)
        # One lane per significance: the group drains when the most populated
        # significance has been fully absorbed.
        actual = ones_per_significance.max(axis=1).astype(np.float64)
        total_ones = ones_per_significance.sum(axis=1)
        minimal = np.ceil(total_ones / lanes).astype(np.float64)
        actual = np.maximum(actual, 1.0)
        minimal = np.minimum(np.maximum(minimal, 1.0), actual)
        return GroupCycleStats(actual=actual, minimal=minimal)
