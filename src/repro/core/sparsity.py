"""Value-, bit-, and BBS-sparsity statistics.

This module reproduces the sparsity analysis of Figure 3: for an INT8 weight
tensor it measures

* **value sparsity** — fraction of exactly-zero weights,
* **bit sparsity (2's complement)** — fraction of zero bits over all bit
  positions,
* **bit sparsity (sign-magnitude)** — same, but in sign-magnitude format,
* **BBS** — bi-directional bit sparsity: for every bit *vector* (the bits of
  one significance across a group of weights) the sparse symbol is whichever
  of {0, 1} occurs more often, so the sparsity of any vector is at least 50 %.

It also provides per-bit-vector statistics used by the load-balance analysis
(Figures 14/15): the number of *effectual* bits a bit-serial PE has to process
per vector under each scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitplane import column_ones, to_sign_magnitude_planes, unsigned_codes

__all__ = [
    "SparsityReport",
    "value_sparsity",
    "bit_sparsity_twos_complement",
    "bit_sparsity_sign_magnitude",
    "bbs_sparsity",
    "sparsity_report",
    "effectual_bits_per_vector",
    "bbs_effectual_bits_per_vector",
]


@dataclass(frozen=True)
class SparsityReport:
    """Sparsity of one weight tensor under the four definitions of Figure 3."""

    value: float
    bit_twos_complement: float
    bit_sign_magnitude: float
    bbs: float

    def as_dict(self) -> dict[str, float]:
        return {
            "value": self.value,
            "bit_twos_complement": self.bit_twos_complement,
            "bit_sign_magnitude": self.bit_sign_magnitude,
            "bbs": self.bbs,
        }


def value_sparsity(weights: np.ndarray) -> float:
    """Fraction of weights that are exactly zero."""
    weights = np.asarray(weights)
    if weights.size == 0:
        return 0.0
    return float(np.count_nonzero(weights == 0) / weights.size)


def bit_sparsity_twos_complement(weights: np.ndarray, bits: int = 8) -> float:
    """Fraction of zero bits in the two's-complement representation."""
    codes = unsigned_codes(weights, bits)
    if not codes.size:
        return 0.0
    ones = np.bitwise_count(codes).sum(dtype=np.int64)
    return float(1.0 - ones / (codes.size * bits))


def bit_sparsity_sign_magnitude(weights: np.ndarray, bits: int = 8) -> float:
    """Fraction of zero bits in the sign-magnitude representation.

    The single non-representable code ``-2**(bits-1)`` is clipped to
    ``-2**(bits-1) + 1``, mirroring what sign-magnitude accelerators
    (BitWave [39]) do in practice.
    """
    weights = np.asarray(weights).astype(np.int64)
    lo = -(1 << (bits - 1))
    weights = np.where(weights == lo, lo + 1, weights)
    planes = to_sign_magnitude_planes(weights, bits)
    return float(1.0 - planes.mean()) if planes.size else 0.0


def _vector_groups(flat: np.ndarray, vector_size: int) -> np.ndarray:
    """Consecutive weights as ``(num_groups, vector_size)`` rows.

    Trailing weights that do not fill a group are zero-padded; padding zeros
    are counted as sparse under every scheme, which matches how hardware pads
    partially-filled groups.
    """
    pad = (-flat.size) % vector_size
    if pad:
        flat = np.pad(flat, (0, pad))
    return flat.reshape(-1, vector_size)


def _vector_ones(weights: np.ndarray, bits: int, vector_size: int) -> np.ndarray:
    """Two's-complement one-bits of every bit vector of length ``vector_size``.

    A bit vector is the bits of one significance across ``vector_size``
    consecutive weights; the vectors are ordered by (group, significance).
    """
    grouped = _vector_groups(np.asarray(weights).ravel(), vector_size)
    return column_ones(grouped, bits).reshape(-1)


def bbs_sparsity(weights: np.ndarray, bits: int = 8, vector_size: int = 8) -> float:
    """Bi-directional bit sparsity with the given bit-vector size.

    For every bit vector the sparse symbol is the majority symbol, so the
    per-vector sparsity is ``max(zeros, ones) / vector_size`` and is always at
    least 0.5.  The returned value is the mean over all vectors of the tensor.
    """
    ones = _vector_ones(weights, bits, vector_size)
    if ones.size == 0:
        return 0.0
    sparse = np.maximum(ones, vector_size - ones) / float(vector_size)
    return float(sparse.mean())


def sparsity_report(
    weights: np.ndarray, bits: int = 8, vector_size: int = 8
) -> SparsityReport:
    """Compute all four sparsity metrics of Figure 3 for one tensor."""
    return SparsityReport(
        value=value_sparsity(weights),
        bit_twos_complement=bit_sparsity_twos_complement(weights, bits),
        bit_sign_magnitude=bit_sparsity_sign_magnitude(weights, bits),
        bbs=bbs_sparsity(weights, bits, vector_size),
    )


def effectual_bits_per_vector(
    weights: np.ndarray,
    bits: int = 8,
    vector_size: int = 8,
    representation: str = "twos_complement",
) -> np.ndarray:
    """Number of one-bits in every bit vector (work for a zero-skipping PE).

    Parameters
    ----------
    representation:
        ``"twos_complement"`` or ``"sign_magnitude"``.

    Returns
    -------
    numpy.ndarray
        1-D integer array with one entry per bit vector.
    """
    if representation == "twos_complement":
        return _vector_ones(weights, bits, vector_size)
    if representation == "sign_magnitude":
        flat = np.asarray(weights).astype(np.int64).ravel()
        lo = -(1 << (bits - 1))
        flat = np.where(flat == lo, lo + 1, flat)
        planes = to_sign_magnitude_planes(_vector_groups(flat, vector_size), bits)
        return planes.sum(axis=1).reshape(-1).astype(np.int64)
    raise ValueError(f"unknown representation {representation!r}")


def bbs_effectual_bits_per_vector(
    weights: np.ndarray, bits: int = 8, vector_size: int = 8
) -> np.ndarray:
    """Effectual bits per vector under BBS (minority symbol count, ≤ vector_size / 2)."""
    ones = _vector_ones(weights, bits, vector_size)
    return np.minimum(ones, vector_size - ones)
