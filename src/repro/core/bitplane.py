"""Bit-plane decomposition of integer tensors.

The BBS paper reasons about DNN weights at the granularity of individual
*bit columns*: the b-th bit of every weight in a group forms one bit column
(also called a bit plane, or a bit vector when we look at a single group).
This module provides the conversion between integer tensors and their
bit-plane representation, for both two's-complement and sign-magnitude
binary formats, plus the "redundant column" analysis used by binary pruning
(Section III-B of the paper).  Code that only *counts* bits uses the
plane-free kernels :func:`column_ones` and :func:`redundant_columns`, which
return exactly what the plane-based definitions do without materializing
``(..., N, bits)`` arrays.

All functions operate on numpy integer arrays and are fully vectorized.
The bit-plane layout convention used throughout the package is::

    planes.shape == weights.shape + (bits,)

with ``planes[..., 0]`` holding the most-significant bit (the sign bit for
two's complement) and ``planes[..., bits - 1]`` holding the least-significant
bit.  Storing the MSB first matches the way the paper draws bit columns
(Figures 1, 4 and 5) and makes "the first k columns" mean "the k most
significant columns".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "int_range",
    "to_bitplanes",
    "unsigned_codes",
    "column_ones",
    "redundant_columns",
    "from_bitplanes",
    "to_sign_magnitude_planes",
    "from_sign_magnitude_planes",
    "count_redundant_columns",
    "remove_redundant_columns",
    "column_weights",
]


def int_range(bits: int) -> tuple[int, int]:
    """Return the inclusive ``(min, max)`` range of a signed ``bits``-bit integer.

    >>> int_range(8)
    (-128, 127)
    """
    if bits < 2:
        raise ValueError(f"signed integers need at least 2 bits, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _validate_range(values: np.ndarray, bits: int) -> None:
    lo, hi = int_range(bits)
    if values.size == 0:
        return
    vmin = int(values.min())
    vmax = int(values.max())
    if vmin < lo or vmax > hi:
        raise ValueError(
            f"values outside the {bits}-bit two's-complement range "
            f"[{lo}, {hi}]: observed [{vmin}, {vmax}]"
        )


def _validated(values: np.ndarray, bits: int) -> np.ndarray:
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"expected an integer array, got dtype {values.dtype}")
    _validate_range(values, bits)
    return values


def to_bitplanes(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Decompose a signed integer tensor into two's-complement bit planes.

    Parameters
    ----------
    values:
        Integer array with entries in the signed ``bits``-bit range.
    bits:
        Word width of the two's-complement representation.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``values.shape + (bits,)`` whose entries are
        0 or 1.  Index 0 along the last axis is the most-significant (sign)
        bit.

    >>> to_bitplanes(np.array([-57]), bits=8)[0]
    array([1, 1, 0, 0, 0, 1, 1, 1], dtype=uint8)
    """
    values = _validated(values, bits)
    # Re-interpret negatives via the unsigned congruence: x mod 2**bits.
    unsigned = np.mod(values.astype(np.int64), 1 << bits)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    planes = (unsigned[..., None] >> shifts) & 1
    return planes.astype(np.uint8)


def _lane_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned dtype holding a ``bits``-bit code."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bits <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    raise ValueError(f"at most 64-bit words are supported, got {bits}")


def unsigned_codes(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Two's-complement codes ``x mod 2**bits`` in the narrowest unsigned dtype.

    Validates like :func:`to_bitplanes`.  ``np.bitwise_count`` of the result
    is the number of one-bits of each ``bits``-bit word.

    >>> unsigned_codes(np.array([-57, 13]), bits=8)
    array([199,  13], dtype=uint8)
    """
    values = _validated(values, bits)
    lane = _lane_dtype(bits)
    mask = np.iinfo(lane).max >> (np.iinfo(lane).bits - bits)
    return values.astype(lane) & lane.type(mask)


def column_ones(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """One-bits per two's-complement bit column of every vector, MSB first.

    ``values`` has shape ``(..., N)``; the result is the ``(..., bits)`` int64
    array ``to_bitplanes(values, bits).sum(axis=-2)``, computed without the
    planes.  The codes are packed into the narrowest unsigned lane that holds
    ``bits`` and each vector is zero-padded to whole ``uint64`` words.  Bit
    ``b`` of every lane of a word is then one shift and one per-lane mask
    away, and ``np.bitwise_count`` of the masked word counts them all.

    >>> column_ones(np.array([[-57, 13]]), bits=8)
    array([[1, 1, 0, 0, 1, 2, 1, 2]])
    """
    codes = unsigned_codes(values, bits)
    *lead, length = codes.shape
    lane_bits = codes.dtype.itemsize * 8
    lanes_per_word = 64 // lane_bits
    num_words = -(-length // lanes_per_word)
    num_vectors = int(np.prod(lead))
    padded = np.zeros((num_vectors, num_words * lanes_per_word), codes.dtype)
    padded[:, :length] = codes.reshape(num_vectors, length)
    # (words, vectors): the per-vector sum then adds whole rows instead of
    # reducing many short inner axes.
    words = padded.reshape(num_vectors, num_words, lanes_per_word).transpose(1, 0, 2).copy()
    words = words.view(np.uint64)[..., 0]
    # A 1 in bit 0 of every lane of a word.
    lane_ones = np.uint64(sum(1 << (lane_bits * k) for k in range(lanes_per_word)))
    ones = np.empty((bits, words.shape[1]), dtype=np.int64)
    scratch = np.empty_like(words)
    for column in range(bits):
        np.right_shift(words, np.uint64(bits - 1 - column), out=scratch)
        np.bitwise_and(scratch, lane_ones, out=scratch)
        np.bitwise_count(scratch).sum(axis=0, dtype=np.int64, out=ones[column])
    return np.ascontiguousarray(ones.T).reshape(*lead, bits)


def redundant_columns(groups: np.ndarray, bits: int = 8) -> np.ndarray:
    """Redundant columns of every ``(..., N)`` group, uncapped.

    The batched form of :func:`count_redundant_columns` (without its
    ``max_redundant`` cap): a column right after the sign column matches it
    for the whole group exactly when every member fits in one fewer bit, so
    the count is ``bits - 1 - bit_length(m)`` with ``m`` the largest
    two's-complement magnitude (``v`` for ``v >= 0``, ``-v - 1`` otherwise),
    never more than ``bits - 2``.  Validates like :func:`to_bitplanes`.

    >>> redundant_columns(np.array([[3, -5, 15, -16], [-11, 2, -57, 13]]))
    array([3, 1])
    """
    groups = _validated(groups, bits).astype(np.int64, copy=False)
    # v ^ (v >> 63) is v for v >= 0 and ~v == -v - 1 otherwise.
    magnitudes = (groups ^ (groups >> 63)).max(axis=-1, initial=0)
    # bit_length(m) = floor(log2(m + 0.5)) + 1 for m >= 0 (the +0.5 keeps exact
    # powers of two on the right side of the floor and maps m == 0 to 0).
    bit_length = np.floor(np.log2(magnitudes + 0.5)).astype(np.int64) + 1
    return np.minimum(bits - 1 - bit_length, bits - 2)


def from_bitplanes(planes: np.ndarray, signed: bool = True) -> np.ndarray:
    """Recompose a two's-complement bit-plane tensor into signed integers.

    Inverse of :func:`to_bitplanes`.  ``planes[..., 0]`` is interpreted as the
    sign bit carrying weight ``-2**(bits-1)`` when ``signed`` is True.

    >>> from_bitplanes(to_bitplanes(np.array([-57, 13]), 8))
    array([-57,  13])
    """
    planes = np.asarray(planes)
    bits = planes.shape[-1]
    weights = column_weights(bits, signed=signed)
    return np.tensordot(planes.astype(np.int64), weights, axes=([-1], [0]))


def column_weights(bits: int, signed: bool = True) -> np.ndarray:
    """Per-column place values, MSB first.

    For a signed (two's-complement) word the most significant column carries a
    negative weight of ``-2**(bits-1)``.

    >>> column_weights(4)
    array([-8,  4,  2,  1])
    """
    weights = 2 ** np.arange(bits - 1, -1, -1, dtype=np.int64)
    if signed:
        weights = weights.copy()
        weights[0] = -weights[0]
    return weights


def to_sign_magnitude_planes(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Decompose signed integers into sign-magnitude bit planes.

    The result has shape ``values.shape + (bits,)``.  Index 0 along the last
    axis is the sign bit (1 for negative); the remaining ``bits - 1`` columns
    are the magnitude, MSB first.  ``-2**(bits-1)`` is not representable in
    sign-magnitude and raises ``ValueError`` (the paper's sign-magnitude
    baselines clip this single code point).

    >>> to_sign_magnitude_planes(np.array([-57]), bits=8)[0]
    array([1, 0, 1, 1, 1, 0, 0, 1], dtype=uint8)
    """
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"expected an integer array, got dtype {values.dtype}")
    lo, hi = int_range(bits)
    if values.size and int(values.min()) <= lo:
        raise ValueError(
            f"{lo} has no sign-magnitude representation in {bits} bits; "
            f"clip the tensor to [{lo + 1}, {hi}] first"
        )
    _validate_range(values, bits)
    sign = (values < 0).astype(np.uint8)
    magnitude = np.abs(values.astype(np.int64))
    shifts = np.arange(bits - 2, -1, -1, dtype=np.int64)
    mag_planes = ((magnitude[..., None] >> shifts) & 1).astype(np.uint8)
    return np.concatenate([sign[..., None], mag_planes], axis=-1)


def from_sign_magnitude_planes(planes: np.ndarray) -> np.ndarray:
    """Recompose sign-magnitude bit planes into signed integers.

    Inverse of :func:`to_sign_magnitude_planes`.
    """
    planes = np.asarray(planes)
    bits = planes.shape[-1]
    mag_weights = 2 ** np.arange(bits - 2, -1, -1, dtype=np.int64)
    magnitude = np.tensordot(planes[..., 1:].astype(np.int64), mag_weights, axes=([-1], [0]))
    sign = np.where(planes[..., 0] > 0, -1, 1).astype(np.int64)
    return sign * magnitude


def count_redundant_columns(
    group_planes: np.ndarray, max_redundant: int | None = None
) -> int:
    """Count redundant columns immediately following the MSB column of a group.

    A column is *redundant* (Section III-B, step 1 of Figure 4) when every row
    of the group has the same bit in that column as in the sign column; such
    columns can be dropped without changing the two's-complement value, as long
    as the remaining MSB keeps the negative place value.

    Parameters
    ----------
    group_planes:
        ``(group, bits)`` bit-plane array of one weight group (MSB first).
    max_redundant:
        Optional cap (the BBS encoding stores at most 3).

    Returns
    -------
    int
        Number of droppable columns directly after the sign column.
    """
    planes = np.asarray(group_planes)
    if planes.ndim != 2:
        raise ValueError(f"expected a (group, bits) array, got shape {planes.shape}")
    bits = planes.shape[1]
    sign = planes[:, 0]
    redundant = 0
    # A column may only be removed if it is identical to the sign column for
    # every group member, and removal proceeds from the column right after the
    # sign bit (removing column k is only legal if columns 1..k are all
    # redundant).  Never remove all magnitude columns.
    for col in range(1, bits - 1):
        if np.array_equal(planes[:, col], sign):
            redundant += 1
        else:
            break
    if max_redundant is not None:
        redundant = min(redundant, max_redundant)
    return redundant


def remove_redundant_columns(group_planes: np.ndarray, count: int) -> np.ndarray:
    """Drop ``count`` redundant columns after the sign column of a group.

    The returned planes have ``bits - count`` columns and still decode (via
    :func:`from_bitplanes`) to the original values, because the surviving MSB
    column keeps the negative place value.

    >>> g = to_bitplanes(np.array([-57, 13]), 8)
    >>> from_bitplanes(remove_redundant_columns(g, count_redundant_columns(g)))
    array([-57,  13])
    """
    planes = np.asarray(group_planes)
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return planes.copy()
    available = count_redundant_columns(planes)
    if count > available:
        raise ValueError(
            f"cannot remove {count} redundant columns; only {available} are redundant"
        )
    return np.concatenate([planes[:, :1], planes[:, 1 + count:]], axis=1)
