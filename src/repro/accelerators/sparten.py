"""SparTen [13]: two-sided value-sparsity accelerator.

SparTen multiplies only weight/activation pairs where *both* values are
non-zero, using per-vector bitmasks and prefix-sum logic to pair them up.  On
8-bit quantized DNNs weight value sparsity is below 5 % and transformer
activations (GELU) are essentially dense, so the paper finds SparTen performs
poorly on these workloads and pays heavily for its sparse encoding (a 12.5 %
bitmask overhead at 8 bits) and pairing hardware.

The model: a PE with the normalized compute budget retires one effective MAC
per cycle per 8-bit multiplier equivalent; the cycles for a 16-weight group
equal the number of surviving (both-nonzero) pairs, floored at one cycle, plus
a pairing-overhead factor.  Weight storage carries the bitmask overhead.
"""

from __future__ import annotations

import copy

import numpy as np

from .area_power import DEFAULT_GATE_COSTS, GateCosts, PEDesign
from .common import BitSerialAccelerator, GroupCycleStats
from ..nn.model_zoo import ModelSpec
from ..nn.synthetic import LayerWeights
from ..nn.workloads import GemmWorkload

__all__ = ["SparTenAccelerator", "sparten_pe"]


def sparten_pe(costs: GateCosts = DEFAULT_GATE_COSTS) -> PEDesign:
    """SparTen PE: an 8x8 multiplier plus sparse pairing (prefix sum) logic."""
    design = PEDesign("SparTen", activity_factor=0.95, lanes=8)
    design.add("multiplier_8x8", costs.adder(10, 8))
    design.add("prefix_sum", costs.adder(5, 16))
    design.add("pair_priority_encoders", costs.priority_encoder(16, 4))
    design.add("bitmask_registers", costs.register(16, 2))
    design.add("local_buffer", costs.register(8, 32))
    design.add("accumulator", costs.adder(24) + costs.register(24))
    design.add("control", 60.0)
    return design


class SparTenAccelerator(BitSerialAccelerator):
    """Two-sided value-sparse accelerator evaluated on 8-bit DNNs."""

    name = "SparTen"

    #: Extra cycles spent on prefix-sum pairing and bank-conflict stalls,
    #: as a fraction of the effective-MAC cycles.
    PAIRING_OVERHEAD = 0.15

    def __init__(self, activation_sparsity: float = 0.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.activation_sparsity = activation_sparsity

    def pe_design(self) -> PEDesign:
        return sparten_pe()

    def for_model(self, model: ModelSpec, weights) -> "SparTenAccelerator":
        """A copy using ``model``'s activation sparsity.

        Activation value sparsity is a property of the model family (ReLU
        CNNs vs GELU transformers); take it from the model spec so one SparTen
        instance can evaluate the whole benchmark suite.  The constructor's
        value still applies to stand-alone :meth:`run_layer` calls.
        """
        del weights
        scoped = copy.copy(self)
        scoped.activation_sparsity = model.activation_value_sparsity
        return scoped

    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        groups = self.layer_groups(layer)
        nonzero_weights = (groups != 0).sum(axis=1)
        # A pair survives when both the weight and its activation are nonzero;
        # activations are independent of the weights, so the expected number
        # of surviving pairs is scaled by the activation density.
        activation_density = 1.0 - self.activation_sparsity
        effective_macs = nonzero_weights * activation_density
        # The PE's 8 bit-serial-lane budget equals one 8-bit MAC per cycle.
        actual = np.maximum(np.ceil(effective_macs * (1.0 + self.PAIRING_OVERHEAD)), 1.0)
        minimal = np.maximum(np.ceil(effective_macs), 1.0)
        minimal = np.minimum(minimal, actual)
        return GroupCycleStats(actual=actual.astype(np.float64), minimal=minimal.astype(np.float64))

    def stored_weight_bytes(self, workload: GemmWorkload, layer: LayerWeights) -> float:
        weights = np.asarray(layer.int_weights)
        density = float(np.count_nonzero(weights) / weights.size) if weights.size else 1.0
        payload = workload.weight_count * density * workload.weight_bits / 8.0
        bitmask = workload.weight_count / 8.0  # one mask bit per weight
        return payload + bitmask
