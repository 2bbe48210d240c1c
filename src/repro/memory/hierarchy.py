"""Buffer tiling and off-chip traffic accounting.

Given a GEMM workload and the on-chip buffer capacities, this module estimates
how many bytes of weights, activations and outputs must cross the DRAM
interface.  The estimate follows the standard tiled-GEMM reuse analysis also
used by the baseline accelerator papers:

* if a tensor fits its buffer it is fetched exactly once,
* otherwise the loop nest re-fetches one operand once per tile of the other
  operand; the model picks whichever loop order (weight-stationary or
  activation/output-stationary over M-tiles) moves fewer bytes, because every
  accelerator's compiler would do the same.

Compression changes the *weight* byte count (and the metadata byte count), so
accelerators that shrink the stored model — BitWave and BitVert — fetch fewer
bytes and may also drop from the "does not fit" to the "fits" regime, which is
exactly the effect behind the off-chip energy differences in Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .dram import DEFAULT_DRAM, DramModel
from .sram import DEFAULT_ACTIVATION_BUFFER, DEFAULT_WEIGHT_BUFFER, SramBuffer
from ..nn.workloads import GemmWorkload

__all__ = ["MemoryTraffic", "MemorySystem"]


@dataclass(frozen=True)
class MemoryTraffic:
    """Per-layer DRAM traffic and on-chip access volumes, in bytes."""

    dram_weight_bytes: float
    dram_activation_bytes: float
    dram_output_bytes: float
    sram_weight_bytes: float
    sram_activation_bytes: float
    sram_output_bytes: float

    @property
    def dram_total_bytes(self) -> float:
        return self.dram_weight_bytes + self.dram_activation_bytes + self.dram_output_bytes

    def scaled(self, factor: float) -> "MemoryTraffic":
        """Scale all byte counts (used for layers with a repeat count)."""
        return MemoryTraffic(
            dram_weight_bytes=self.dram_weight_bytes * factor,
            dram_activation_bytes=self.dram_activation_bytes * factor,
            dram_output_bytes=self.dram_output_bytes * factor,
            sram_weight_bytes=self.sram_weight_bytes * factor,
            sram_activation_bytes=self.sram_activation_bytes * factor,
            sram_output_bytes=self.sram_output_bytes * factor,
        )


@dataclass
class MemorySystem:
    """The memory hierarchy shared by all accelerator models."""

    activation_buffer: SramBuffer = DEFAULT_ACTIVATION_BUFFER
    weight_buffer: SramBuffer = DEFAULT_WEIGHT_BUFFER
    dram: DramModel = DEFAULT_DRAM

    def layer_traffic(
        self,
        workload: GemmWorkload,
        stored_weight_bytes: float | None = None,
        metadata_bytes: float = 0.0,
        activation_bits: int | None = None,
    ) -> MemoryTraffic:
        """Estimate DRAM and SRAM traffic for one GEMM layer.

        Parameters
        ----------
        workload:
            The layer GEMM.
        stored_weight_bytes:
            Compressed weight footprint in bytes (defaults to the dense
            footprint).  Compression reduces both DRAM and SRAM weight bytes.
        metadata_bytes:
            Extra per-layer metadata (BBS encoding words, sparse bitmasks...)
            fetched alongside the weights.
        activation_bits:
            Override for the activation precision (e.g. 6-bit ANT
            activations).
        """
        act_bits = activation_bits or workload.activation_bits
        weight_bytes = (
            float(stored_weight_bytes)
            if stored_weight_bytes is not None
            else float(workload.weight_bytes)
        ) + metadata_bytes
        activation_bytes = workload.m * workload.k * act_bits / 8.0
        output_bytes = workload.m * workload.n * act_bits / 8.0

        weights_fit = weight_bytes <= self.weight_buffer.capacity_bytes
        activations_fit = activation_bytes <= self.activation_buffer.capacity_bytes

        if weights_fit and activations_fit:
            dram_weight = weight_bytes
            dram_activation = activation_bytes
        elif weights_fit:
            # Weights stay resident; stream activation tiles once.
            dram_weight = weight_bytes
            dram_activation = activation_bytes
        elif activations_fit:
            # Activations stay resident; stream weight tiles once.
            dram_weight = weight_bytes
            dram_activation = activation_bytes
        else:
            # Neither operand fits: tile both and pick the cheaper loop order.
            weight_tiles = max(1, ceil(weight_bytes / self.weight_buffer.capacity_bytes))
            activation_tiles = max(
                1, ceil(activation_bytes / self.activation_buffer.capacity_bytes)
            )
            weight_stationary = weight_bytes + activation_bytes * weight_tiles
            activation_stationary = activation_bytes + weight_bytes * activation_tiles
            if weight_stationary <= activation_stationary:
                dram_weight = weight_bytes
                dram_activation = activation_bytes * weight_tiles
            else:
                dram_weight = weight_bytes * activation_tiles
                dram_activation = activation_bytes

        # On-chip accesses: every operand byte is read from SRAM once per MAC
        # row/column it participates in, but the PE-array register reuse means
        # the buffer is accessed once per tile element; we charge one SRAM read
        # per DRAM byte plus one per compute reuse of the smaller operand.
        sram_weight = max(dram_weight, weight_bytes)
        sram_activation = max(dram_activation, activation_bytes)
        sram_output = output_bytes

        return MemoryTraffic(
            dram_weight_bytes=dram_weight,
            dram_activation_bytes=dram_activation,
            dram_output_bytes=output_bytes,
            sram_weight_bytes=sram_weight,
            sram_activation_bytes=sram_activation,
            sram_output_bytes=sram_output,
        )

    def traffic_energy_pj(self, traffic: MemoryTraffic) -> tuple[float, float]:
        """Return ``(dram_energy_pj, sram_energy_pj)`` for a traffic record."""
        dram_energy = self.dram.access_energy_pj(traffic.dram_total_bytes)
        sram_energy = self.weight_buffer.access_energy_pj(
            traffic.sram_weight_bytes
        ) + self.activation_buffer.access_energy_pj(
            traffic.sram_activation_bytes, traffic.sram_output_bytes
        )
        return dram_energy, sram_energy

    def dram_cycles(self, traffic: MemoryTraffic, clock_ghz: float = 0.8) -> float:
        """Accelerator cycles to move the layer's DRAM traffic."""
        return self.dram.transfer_cycles(traffic.dram_total_bytes, clock_ghz)
