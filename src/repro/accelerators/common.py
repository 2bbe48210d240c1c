"""Shared machinery of the cycle-level accelerator models.

Every accelerator in the paper's comparison (Figure 12/13) is normalized to
the same compute budget — 512 8-bit-multiplier equivalents, i.e. 4096
bit-serial multipliers — and the same 256 KB + 256 KB on-chip buffers.  The
performance of each design then depends on how its skipping scheme maps the
bit-level (or value-level) structure of the weights onto those lanes, and on
how much weight data it must move from DRAM.

The models here are *statistical cycle models*: for every layer we compute the
exact per-weight-group cycle cost of the scheme (from the synthetic INT8
weights), then account for the array-level synchronization (the slowest of the
weight groups processed in parallel gates each wave) by measuring the expected
maximum over randomly co-scheduled groups.  This reproduces the load-balance
behaviour the paper analyses in Figures 14/15 without simulating every cycle
of a multi-billion-MAC network in Python.  The substitution is recorded in
DESIGN.md.

Terminology used throughout:

* *group* — ``pe_group_size`` (16) weights along the reduction dimension that
  one PE processes bit-serially.
* *wave* — one round in which every PE column works on one group of its
  assigned output channel; the wave ends when the slowest column finishes
  (inter-PE synchronization).
* *useful / intra-PE / inter-PE cycles* — the breakdown of Figure 15: the
  minimum cycles the scheme could take with perfect balance inside a PE, the
  extra cycles lost to imbalance across the lanes of one PE, and the extra
  cycles lost waiting for slower PE columns.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from math import ceil
from typing import Mapping

import numpy as np

from .area_power import PEDesign
from ..core.memo import memoized_evaluation
from ..memory.hierarchy import MemorySystem, MemoryTraffic
from ..nn.model_zoo import ModelSpec
from ..nn.synthetic import LayerWeights, weights_key
from ..nn.workloads import GemmWorkload, layer_workload

__all__ = [
    "ArrayConfig",
    "GroupCycleStats",
    "LayerPerformance",
    "ModelPerformance",
    "Accelerator",
    "BitSerialAccelerator",
    "expected_wave_cycles",
]


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of the PE array, shared by every accelerator in a comparison.

    The default geometry is BitVert's 16 x 32 array of 8-lane PEs (Figure 10);
    scaling every design to the same lane count is exactly the normalization
    the paper applies ("all accelerators are scaled to contain the same number
    of multipliers, where an 8-bit multiplier is equivalent to eight bit-serial
    multipliers").
    """

    pe_rows: int = 16
    pe_columns: int = 32
    lanes_per_pe: int = 8
    pe_group_size: int = 16
    clock_ghz: float = 0.8

    @property
    def total_lanes(self) -> int:
        return self.pe_rows * self.pe_columns * self.lanes_per_pe

    @property
    def eight_bit_multiplier_equivalents(self) -> int:
        return self.total_lanes // 8

    def with_columns(self, pe_columns: int) -> "ArrayConfig":
        return ArrayConfig(
            pe_rows=self.pe_rows,
            pe_columns=pe_columns,
            lanes_per_pe=self.lanes_per_pe,
            pe_group_size=self.pe_group_size,
            clock_ghz=self.clock_ghz,
        )


@dataclass
class GroupCycleStats:
    """Per-group cycle costs of one layer under one accelerator's scheme.

    ``actual`` is the number of cycles each weight group occupies its PE,
    including intra-PE imbalance; ``minimal`` is the lower bound the scheme
    could reach with perfectly balanced lanes (used for the Figure 15
    breakdown).  Both are 1-D arrays with one entry per sampled weight group.

    ``partition`` optionally labels each group with a scheduling class:
    groups of different classes are never co-scheduled in the same wave.  The
    BitVert channel-reordering mechanism creates exactly this situation
    (8-bit sensitive chunks vs pruned chunks), and modelling it removes the
    artificial inter-PE stall that mixing the two classes would imply.
    """

    actual: np.ndarray
    minimal: np.ndarray
    partition: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.actual = np.asarray(self.actual, dtype=np.float64)
        self.minimal = np.asarray(self.minimal, dtype=np.float64)
        if self.actual.shape != self.minimal.shape:
            raise ValueError("actual and minimal must have the same shape")
        if np.any(self.minimal - self.actual > 1e-9):
            raise ValueError("minimal cycles cannot exceed actual cycles")
        if self.partition is not None:
            self.partition = np.asarray(self.partition)
            if self.partition.shape != self.actual.shape:
                raise ValueError("partition labels must match the group count")


@dataclass
class LayerPerformance:
    """Performance and energy of one layer on one accelerator."""

    name: str
    compute_cycles: float
    dram_cycles: float
    useful_cycles: float
    intra_pe_stall_cycles: float
    inter_pe_stall_cycles: float
    compute_energy_pj: float
    sram_energy_pj: float
    dram_energy_pj: float
    stored_weight_bytes: float
    traffic: MemoryTraffic
    repeat: int = 1

    @property
    def total_cycles(self) -> float:
        """Execution cycles with compute/DRAM overlap (double buffering)."""
        return max(self.compute_cycles, self.dram_cycles)

    @property
    def total_energy_pj(self) -> float:
        return self.compute_energy_pj + self.sram_energy_pj + self.dram_energy_pj


@dataclass
class ModelPerformance:
    """Aggregated performance of a whole model on one accelerator."""

    accelerator: str
    model: str
    layers: list[LayerPerformance] = field(default_factory=list)
    clock_ghz: float = 0.8

    def copy(self) -> "ModelPerformance":
        """An independent copy (layer records hold only immutable values)."""
        return replace(self, layers=[copy.copy(layer) for layer in self.layers])

    @property
    def total_cycles(self) -> float:
        return sum(layer.total_cycles * layer.repeat for layer in self.layers)

    @property
    def compute_cycles(self) -> float:
        return sum(layer.compute_cycles * layer.repeat for layer in self.layers)

    @property
    def dram_cycles(self) -> float:
        return sum(layer.dram_cycles * layer.repeat for layer in self.layers)

    @property
    def useful_cycles(self) -> float:
        return sum(layer.useful_cycles * layer.repeat for layer in self.layers)

    @property
    def intra_pe_stall_cycles(self) -> float:
        return sum(layer.intra_pe_stall_cycles * layer.repeat for layer in self.layers)

    @property
    def inter_pe_stall_cycles(self) -> float:
        return sum(layer.inter_pe_stall_cycles * layer.repeat for layer in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(layer.total_energy_pj * layer.repeat for layer in self.layers)

    @property
    def compute_energy_pj(self) -> float:
        return sum(layer.compute_energy_pj * layer.repeat for layer in self.layers)

    @property
    def on_chip_energy_pj(self) -> float:
        return sum(
            (layer.compute_energy_pj + layer.sram_energy_pj) * layer.repeat
            for layer in self.layers
        )

    @property
    def off_chip_energy_pj(self) -> float:
        return sum(layer.dram_energy_pj * layer.repeat for layer in self.layers)

    @property
    def execution_time_s(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def energy_delay_product(self) -> float:
        """EDP in joule-seconds."""
        return (self.total_energy_pj * 1e-12) * self.execution_time_s

    def speedup_over(self, baseline: "ModelPerformance") -> float:
        if self.total_cycles == 0:
            return float("inf")
        return baseline.total_cycles / self.total_cycles

    def energy_ratio_to(self, baseline: "ModelPerformance") -> float:
        if baseline.total_energy_pj == 0:
            return float("inf")
        return self.total_energy_pj / baseline.total_energy_pj

    def cycle_breakdown(self) -> dict[str, float]:
        """Normalized breakdown of compute cycles (Figure 15 bars)."""
        total = self.compute_cycles
        if total == 0:
            return {"useful": 0.0, "intra_pe_stall": 0.0, "inter_pe_stall": 0.0}
        return {
            "useful": self.useful_cycles / total,
            "intra_pe_stall": self.intra_pe_stall_cycles / total,
            "inter_pe_stall": self.inter_pe_stall_cycles / total,
        }


def expected_wave_cycles(
    per_group_cycles: np.ndarray,
    parallel_groups: int,
    num_batches: int = 512,
    seed: int = 0,
) -> float:
    """Expected cycles of one wave: the mean of the max over co-scheduled groups.

    When ``parallel_groups`` weight groups from different output channels are
    processed in lockstep, the wave lasts as long as the slowest one.  The
    groups co-scheduled in hardware are essentially arbitrary (different
    channels, same reduction offset), so we estimate the expectation of the
    maximum by resampling batches from the empirical per-group cycle
    distribution.
    """
    cycles = np.asarray(per_group_cycles, dtype=np.float64).ravel()
    if cycles.size == 0:
        return 0.0
    if parallel_groups <= 1:
        return float(cycles.mean())
    rng = np.random.default_rng(seed)
    samples = rng.choice(cycles, size=(num_batches, parallel_groups), replace=True)
    return float(samples.max(axis=1).mean())


class Accelerator:
    """Base class: one accelerator design evaluated on GEMM workloads."""

    #: Human-readable accelerator name (used in result tables).
    name: str = "abstract"

    def __init__(
        self,
        array: ArrayConfig | None = None,
        memory: MemorySystem | None = None,
    ) -> None:
        self.array = array or ArrayConfig()
        self.memory = memory or MemorySystem()

    # ------------------------------------------------------------------ hooks
    def pe_design(self) -> PEDesign:
        """The PE used for compute-energy accounting."""
        raise NotImplementedError

    def group_cycle_stats(self, layer: LayerWeights) -> GroupCycleStats:
        """Per-group cycle costs of this scheme for one layer's weights."""
        raise NotImplementedError

    def stored_weight_bytes(self, workload: GemmWorkload, layer: LayerWeights) -> float:
        """Weight bytes (including metadata) this design fetches for the layer."""
        return float(workload.weight_bytes)

    def activation_bits(self, workload: GemmWorkload) -> int:
        """Activation precision moved through the memory system."""
        return workload.activation_bits

    # -------------------------------------------------------------- execution
    def run_layer(self, workload: GemmWorkload, layer: LayerWeights) -> LayerPerformance:
        """Evaluate one layer and return its performance record."""
        stats = self.group_cycle_stats(layer)
        array = self.array

        groups_per_channel = ceil(workload.k / array.pe_group_size)
        channel_blocks = ceil(workload.n / array.pe_columns)
        pixel_blocks = ceil(workload.m / array.pe_rows)
        waves = groups_per_channel * channel_blocks

        parallel = min(array.pe_columns, workload.n)
        if stats.partition is None:
            wave_cycles = expected_wave_cycles(stats.actual, parallel)
        else:
            # Groups of different scheduling classes are never co-scheduled
            # (channel reordering); the wave expectation is the class-size
            # weighted mean of the per-class expectations.
            wave_cycles = 0.0
            total = stats.actual.size
            for label in np.unique(stats.partition):
                mask = stats.partition == label
                fraction = mask.sum() / total
                wave_cycles += fraction * expected_wave_cycles(stats.actual[mask], parallel)
        mean_actual = float(stats.actual.mean()) if stats.actual.size else 0.0
        mean_minimal = float(stats.minimal.mean()) if stats.minimal.size else 0.0

        compute_cycles = waves * wave_cycles * pixel_blocks
        useful = waves * mean_minimal * pixel_blocks
        intra = waves * (mean_actual - mean_minimal) * pixel_blocks
        inter = waves * (wave_cycles - mean_actual) * pixel_blocks

        stored_bytes = self.stored_weight_bytes(workload, layer)
        traffic = self.memory.layer_traffic(
            workload,
            stored_weight_bytes=stored_bytes,
            activation_bits=self.activation_bits(workload),
        )
        dram_cycles = self.memory.dram_cycles(traffic, array.clock_ghz)
        dram_energy, sram_energy = self.memory.traffic_energy_pj(traffic)

        pe = self.pe_design()
        active_pes = min(array.pe_columns, workload.n) * min(array.pe_rows, workload.m)
        compute_energy = compute_cycles * active_pes * pe.energy_per_cycle_pj(array.clock_ghz)

        return LayerPerformance(
            name=workload.name,
            compute_cycles=compute_cycles,
            dram_cycles=dram_cycles,
            useful_cycles=useful,
            intra_pe_stall_cycles=intra,
            inter_pe_stall_cycles=inter,
            compute_energy_pj=compute_energy,
            sram_energy_pj=sram_energy,
            dram_energy_pj=dram_energy,
            stored_weight_bytes=stored_bytes,
            traffic=traffic,
            repeat=workload.repeat,
        )

    def configuration(self) -> dict:
        """Everything an evaluation depends on besides the model and weights.

        The design class and every public attribute: the array, the memory
        system and the design parameters.  Private attributes are per-layer
        caches of results that these already determine.
        """
        config = {k: v for k, v in vars(self).items() if not k.startswith("_")}
        config["design"] = f"{type(self).__module__}.{type(self).__qualname__}"
        return config

    def for_model(
        self, model: ModelSpec, weights: Mapping[str, LayerWeights]
    ) -> "Accelerator":
        """The accelerator that evaluates ``model``'s layers.

        Designs with model-wide state (BitVert's global pruning, SparTen's
        model-dependent activation sparsity) return a configured copy, so
        :meth:`run_model` leaves no state behind on ``self``.
        """
        del model, weights
        return self

    def run_model(
        self, model: ModelSpec, weights: Mapping[str, LayerWeights]
    ) -> ModelPerformance:
        """Evaluate a whole model given its (synthetic) per-layer weights.

        Memoized (:func:`~repro.core.memo.memoized_evaluation`) on
        :meth:`configuration`, the model spec's digest and
        :func:`~repro.nn.synthetic.weights_key` (the digest synthesized
        weights carry, so a hit costs nothing per layer).  The key covers the
        whole model, not each layer, because an evaluation may depend on
        every layer (BitVert's global pruning).
        """
        key = (
            "Accelerator.run_model",
            self.configuration(),
            model.digest,
            weights_key(weights),
        )
        return memoized_evaluation(
            key,
            lambda: self.for_model(model, weights)._run_layers(model, weights),
            clone=ModelPerformance.copy,
        )

    def _run_layers(
        self, model: ModelSpec, weights: Mapping[str, LayerWeights]
    ) -> ModelPerformance:
        result = ModelPerformance(
            accelerator=self.name, model=model.name, clock_ghz=self.array.clock_ghz
        )
        for spec in model.layers:
            if spec.name not in weights:
                raise KeyError(f"missing weights for layer {spec.name!r}")
            workload = layer_workload(spec)
            result.layers.append(self.run_layer(workload, weights[spec.name]))
        return result


class BitSerialAccelerator(Accelerator):
    """Base class for weight-bit-serial designs (Stripes, Pragmatic, ...).

    Subclasses implement :meth:`group_cycle_stats` in terms of the bit-level
    structure of each 16-weight group; this base class provides the shared
    helper that reshapes a layer's sampled weight matrix into those groups.
    """

    def layer_groups(self, layer: LayerWeights) -> np.ndarray:
        """Sampled weights reshaped to ``(num_groups, pe_group_size)``."""
        weights = np.asarray(layer.int_weights)
        group = self.array.pe_group_size
        channels, reduction = weights.shape
        usable = reduction - (reduction % group)
        if usable == 0:
            padded = np.zeros((channels, group), dtype=weights.dtype)
            padded[:, :reduction] = weights
            return padded
        return weights[:, :usable].reshape(channels * (usable // group), group)
