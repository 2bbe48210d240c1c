"""Pragmatic [1]: per-operand essential-bit (zero-bit skipping) accelerator.

Pragmatic serializes only the *one* bits of each weight: every lane walks the
essential bits of its assigned weight, one per cycle, and a variable shifter
aligns the bit significance before accumulation.  Because the lanes of a PE
process different weights in lockstep (they share the activation fetch and the
adder tree), a PE is occupied until its slowest lane finishes — the intra-PE
load-imbalance the paper highlights.  All weight bits are still fetched from
memory (no compression).
"""

from __future__ import annotations

import numpy as np

from .area_power import PEDesign, pragmatic_pe
from .common import BitSerialAccelerator, GroupCycleStats
from ..core.bitplane import unsigned_codes
from ..nn.synthetic import LayerWeights

__all__ = ["PragmaticAccelerator"]


class PragmaticAccelerator(BitSerialAccelerator):
    """Essential-bit-serial accelerator with per-lane variable shifters."""

    name = "Pragmatic"

    def __init__(self, weight_bits: int = 8, **kwargs) -> None:
        super().__init__(**kwargs)
        self.weight_bits = weight_bits

    def pe_design(self) -> PEDesign:
        return pragmatic_pe()

    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        groups = self.layer_groups(layer)
        lanes = self.array.lanes_per_pe
        group_size = self.array.pe_group_size
        weights_per_lane = max(1, group_size // lanes)

        # One-bits of every weight's two's-complement code: (G, group).
        ones_per_weight = np.bitwise_count(unsigned_codes(groups, self.weight_bits))
        # Each lane serially handles `weights_per_lane` weights of the group;
        # the PE finishes when its busiest lane does.
        lane_view = ones_per_weight[:, : lanes * weights_per_lane].reshape(
            groups.shape[0], lanes, weights_per_lane
        )
        lane_cycles = lane_view.sum(axis=2)
        actual = lane_cycles.max(axis=1).astype(np.float64)
        total_ones = ones_per_weight.sum(axis=1)
        minimal = np.ceil(total_ones / lanes).astype(np.float64)
        # A lane still spends one cycle on an all-zero weight (pipeline bubble).
        actual = np.maximum(actual, 1.0)
        minimal = np.minimum(np.maximum(minimal, 1.0), actual)
        return GroupCycleStats(actual=actual, minimal=minimal)
