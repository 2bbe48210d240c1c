"""CACTI-style on-chip SRAM buffer model.

The paper models its on-chip buffers (256 KB activation buffer, 256 KB weight
buffer, plus small metadata/index buffers) with CACTI 7 [4] at 28 nm.  We use
a compact analytical fit of the same technology point: access energy grows
roughly with the square root of the capacity (bitline/wordline length), and
area grows slightly super-linearly with capacity due to peripheral overhead.
The absolute constants are representative 28 nm numbers (a 256 KB SRAM read
costs on the order of 1 pJ/byte); what matters for the reproduction is that
every accelerator is charged with the same buffer model, so relative energy
results depend only on access counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SramBuffer", "DEFAULT_ACTIVATION_BUFFER", "DEFAULT_WEIGHT_BUFFER"]


@dataclass(frozen=True)
class SramBuffer:
    """An on-chip SRAM buffer characterized by capacity and port width.

    Attributes
    ----------
    name:
        Human-readable buffer name.
    capacity_bytes:
        Total capacity.
    port_bits:
        Width of one access port (energy is charged per byte regardless;
        the port width matters for bandwidth accounting).
    technology_nm:
        Process node; energies scale linearly with the node relative to 28 nm
        (a crude but monotone approximation, only used if callers model other
        nodes).
    """

    name: str
    capacity_bytes: int
    port_bits: int = 128
    technology_nm: float = 28.0

    # Calibration constants for the 28 nm fit (pJ per byte at 1 KB, exponent).
    _ENERGY_AT_1KB_PJ_PER_BYTE: float = 0.08
    _ENERGY_CAPACITY_EXPONENT: float = 0.5
    _AREA_MM2_PER_KB: float = 0.0022

    @property
    def capacity_kb(self) -> float:
        return self.capacity_bytes / 1024.0

    def read_energy_per_byte_pj(self) -> float:
        """Read energy per byte in picojoules."""
        if self.capacity_bytes <= 0:
            return 0.0
        scale = self.technology_nm / 28.0
        return (
            self._ENERGY_AT_1KB_PJ_PER_BYTE
            * self.capacity_kb**self._ENERGY_CAPACITY_EXPONENT
            * scale
        )

    def write_energy_per_byte_pj(self) -> float:
        """Write energy per byte (slightly above read energy, as in CACTI)."""
        return 1.1 * self.read_energy_per_byte_pj()

    def access_energy_pj(self, bytes_read: float, bytes_written: float = 0.0) -> float:
        """Total energy in pJ for a given read/write byte volume."""
        if bytes_read < 0 or bytes_written < 0:
            raise ValueError("byte counts must be non-negative")
        return (
            bytes_read * self.read_energy_per_byte_pj()
            + bytes_written * self.write_energy_per_byte_pj()
        )

    def area_mm2(self) -> float:
        """Macro area in mm^2 (linear in capacity with a small fixed overhead)."""
        return 0.002 + self._AREA_MM2_PER_KB * self.capacity_kb

    def scaled(self, capacity_bytes: int) -> "SramBuffer":
        """A copy of this buffer with a different capacity."""
        return SramBuffer(
            name=self.name,
            capacity_bytes=capacity_bytes,
            port_bits=self.port_bits,
            technology_nm=self.technology_nm,
        )


#: The paper equips ANT and all bit-serial accelerators with 256 KB activation
#: and 256 KB weight buffers (Section V-A).
DEFAULT_ACTIVATION_BUFFER = SramBuffer("activation_buffer", 256 * 1024, port_bits=256)
DEFAULT_WEIGHT_BUFFER = SramBuffer("weight_buffer", 256 * 1024, port_bits=256)


def buffer_fit_fraction(buffer: SramBuffer, working_set_bytes: float) -> float:
    """Fraction of a working set that fits in the buffer (1.0 means it all fits)."""
    if working_set_bytes <= 0:
        return 1.0
    return float(np.clip(buffer.capacity_bytes / working_set_bytes, 0.0, 1.0))


__all__ += ["buffer_fit_fraction"]
