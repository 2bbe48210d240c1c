"""Binary pruning strategy 2: zero-point shifting (Figure 5, Algorithm 1).

For aggressive pruning budgets (4 columns in the paper's moderate setting),
replacing many low columns with one rounded average costs too much MSE.
Zero-point shifting instead searches for a constant to *add* to the whole
group (shifting its zero point) such that, after the shift, the low columns
can be zeroed out — each weight either truncates down or rounds up to the
next multiple of ``2**k`` — with minimal error against the original weights.
The chosen constant is stored in the 6-bit BBS-constant metadata field and is
subtracted back during computation (``actual = shifted_pruned - constant``).

The search over the 64 possible 6-bit constants is exhaustive and exact.  For
one call's ``(num_columns, bits, constant_bits)``, a weight's rounding under
constant ``c`` depends only on its value ``v``, on ``c`` and on the group's
redundant-column count ``r`` (0..3, read off the shifted group extrema).  The
fast path (:func:`zero_point_shift_groups`) therefore tabulates the squared
error and the decoded value of every ``(r, c, v)`` once, counts each group's
values, and scores every ``(r, c)`` of a block of groups with one float32
``histogram @ table.T`` product; each candidate then reads the score of its
actual ``r``, and the first minimum over ascending candidates is the
reference's tie-break.  The original per-candidate implementation is kept as
:func:`zero_point_shift_groups_reference`; the two are bit-identical
(property-tested in ``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bitplane import _validated, int_range
from .encoding import (
    CONSTANT_FIELD_BITS,
    MAX_PRUNED_COLUMNS,
    MAX_REDUNDANT_COLUMNS,
    PrunedGroup,
    PruningStrategy,
)

__all__ = [
    "zero_point_shift_group",
    "zero_point_shift_groups",
    "zero_point_shift_groups_reference",
]

#: Group rows per histogram block.  At the default widths the block's float32
#: histogram and score matrices (512 x 256 each) stay cache-resident: 4096-row
#: blocks measured ~1.7x slower on 8192 groups of 32.
_GROUP_BLOCK = 512


def _constant_candidates(constant_bits: int) -> np.ndarray:
    half = 1 << (constant_bits - 1)
    return np.arange(-half, half, dtype=np.int64)


def zero_point_shift_group(
    group: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> PrunedGroup:
    """Apply zero-point shifting to a single weight group.

    Parameters
    ----------
    group:
        1-D integer weight group in the signed ``bits`` range.
    num_columns:
        Total number of bit columns to prune (redundant + zeroed).
    bits:
        Weight word width.
    constant_bits:
        Width of the signed zero-point constant (6 in the BBS encoding).

    Returns
    -------
    PrunedGroup
        ``values`` holds the actual weights after compression
        (``shifted_pruned - constant``).
    """
    group = np.asarray(group)
    if group.ndim != 1:
        raise ValueError(f"expected a 1-D group, got shape {group.shape}")
    values, redundant, sparse, constant = zero_point_shift_groups(
        group[None, :], num_columns, bits=bits, constant_bits=constant_bits
    )
    return PrunedGroup(
        values=values[0],
        num_redundant=int(redundant[0]),
        num_sparse=int(sparse[0]),
        constant=int(constant[0]),
        strategy=PruningStrategy.ZERO_POINT_SHIFT,
        bits=bits,
    )


def _validate_groups(
    groups: np.ndarray, num_columns: int, bits: int, constant_bits: int
) -> np.ndarray:
    groups = np.asarray(groups)
    if groups.ndim != 2:
        raise ValueError(f"expected (num_groups, group_size), got {groups.shape}")
    if num_columns < 0 or num_columns > MAX_PRUNED_COLUMNS:
        raise ValueError(
            f"num_columns must be in [0, {MAX_PRUNED_COLUMNS}], got {num_columns}"
        )
    if constant_bits < 1:
        raise ValueError(f"constant_bits must be at least 1, got {constant_bits}")
    return _validated(groups, bits).astype(np.int64)


def zero_point_shift_groups(
    groups: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized zero-point shifting over many groups (Algorithm 1).

    Returns
    -------
    tuple
        ``(actual_values, num_redundant, num_sparse, constants)``.
        ``actual_values`` are the decoded weights (shift already removed).
    """
    groups = _validate_groups(groups, num_columns, bits, constant_bits)
    num_groups, group_size = groups.shape
    if num_columns == 0 or num_groups == 0 or group_size == 0:
        zeros = np.zeros(num_groups, dtype=np.int64)
        sparse = (
            zeros.copy()
            if num_columns == 0
            else np.full(num_groups, num_columns, dtype=np.int64)
        )
        return groups.copy(), zeros, sparse, zeros.copy()

    # A base rounding error is at most one block plus the constant magnitude.
    # Every partial sum of the float32 scores is then an integer below 2**24,
    # so any summation order gives the exact SSE.  Wider words (a larger
    # table) and longer groups take the oracle.
    error_bound = (1 << MAX_PRUNED_COLUMNS) + (1 << (constant_bits - 1))
    if bits > 8 or constant_bits > 8 or group_size * error_bound**2 >= 2**24:
        return zero_point_shift_groups_reference(
            groups, num_columns, bits=bits, constant_bits=constant_bits
        )

    candidates = _constant_candidates(constant_bits)
    num_candidates = candidates.size
    vmin = int(groups.min())
    span = int(groups.max()) - vmin + 1
    sq_error, decoded, extreme_row = _rounding_tables(
        vmin, span, num_columns, bits, constant_bits
    )
    codes = groups - vmin
    max_codes = codes.max(axis=1)
    min_codes = codes.min(axis=1)

    # The search only selects.  The reference compares float64 MSEs, which
    # equal the integer SSE / group_size exactly, so SSE order is its order
    # and the first minimum over ascending candidates is its strict-
    # improvement scan.  A winner is kept as its table row r * C + j.
    best_row = np.empty(num_groups, dtype=np.int64)
    for g0 in range(0, num_groups, _GROUP_BLOCK):
        g1 = min(g0 + _GROUP_BLOCK, num_groups)
        rows = g1 - g0
        offsets = codes[g0:g1] + (np.arange(rows) * span)[:, None]
        hist = np.bincount(offsets.ravel(), minlength=rows * span)
        scores = hist.reshape(rows, span).astype(np.float32) @ sq_error.T
        # A group's redundant count is the smaller of its extremes' counts.
        table_row = np.minimum(extreme_row[max_codes[g0:g1]], extreme_row[min_codes[g0:g1]])
        sse = np.take(scores, table_row + (np.arange(rows) * scores.shape[1])[:, None])
        best_row[g0:g1] = table_row[np.arange(rows), np.argmin(sse, axis=1)]

    values = decoded[best_row[:, None], codes]
    redundant = best_row // num_candidates
    return values, redundant, num_columns - redundant, candidates[best_row % num_candidates]


@lru_cache(maxsize=32)
def _rounding_tables(
    vmin: int, span: int, num_columns: int, bits: int, constant_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tabulate Algorithm 1 over every weight value ``v`` in ``vmin + range(span)``.

    ``candidates`` are :func:`_constant_candidates` of ``constant_bits``.  The
    tables depend only on the arguments, and a pass over a model asks for a
    handful of distinct ones, so they are cached and returned read-only.

    Returns ``(sq_error, decoded, extreme_row)``.  The first two are
    ``(R * C, span)``: row ``r * C + j`` holds redundant count ``r`` and
    candidate ``candidates[j]``, column ``v - vmin`` the squared error and the
    decoded weight of ``v``.  The rounding replays :func:`_prune_low_columns`
    exactly: round the clipped shifted weight down or up to a
    ``2**(num_columns - r)`` multiple, charge ``2**(2 * bits)`` for a decoded
    weight outside the word, forbid an up that breaks the redundant-column
    bound, and take up only if strictly better.

    ``extreme_row`` is ``(span, C)``: the row ``r * C + j`` for a group whose
    only member is ``v``.  A group's redundant count is the smallest of its
    members', which is reached at its max or min, so a group's row under
    candidate ``j`` is the smaller of its extremes' rows.
    """
    candidates = _constant_candidates(constant_bits)
    lo, hi = int_range(bits)
    shift = candidates.astype(np.int32)[None, :, None]
    unclipped = np.arange(vmin, vmin + span, dtype=np.int32) + shift
    clipped = np.clip(unclipped, lo, hi)
    word = np.arange(lo, hi + 1)[:, None]
    single = np.minimum(_redundant_columns_batch(word, bits), num_columns)[clipped[0].T - lo]
    extreme_row = single * candidates.size + np.arange(candidates.size)

    redundant = np.arange(int(single.max()) + 1)[:, None, None]
    block = np.int32(1) << (num_columns - redundant).astype(np.int32)
    down = clipped & -block  # two's-complement AND == floor to a block multiple
    up = down + block
    penalty = np.int32(1 << (2 * bits))
    err_down = np.abs(down - unclipped) + penalty * (down - shift < lo)
    err_up = np.abs(up - unclipped) + penalty * (up - shift > hi)
    up_limit = np.minimum((1 << (bits - 1 - redundant)) - 1, hi)
    chosen = np.where((up <= up_limit) & (err_up < err_down), up, down)
    error = (chosen - unclipped).astype(np.float32).reshape(-1, span)
    decoded = (chosen - shift).astype(np.int64).reshape(-1, span)
    tables = (error * error, decoded, extreme_row)
    for table in tables:
        table.flags.writeable = False
    return tables


def zero_point_shift_groups_reference(
    groups: np.ndarray,
    num_columns: int,
    bits: int = 8,
    constant_bits: int = CONSTANT_FIELD_BITS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Original per-candidate Algorithm-1 search, kept as the golden oracle.

    One full ``(num_groups, group_size)`` pass per candidate constant; the
    table-driven :func:`zero_point_shift_groups` must stay bit-identical to
    this.
    """
    groups = _validate_groups(groups, num_columns, bits, constant_bits)
    num_groups = groups.shape[0]
    if num_columns == 0:
        zeros = np.zeros(num_groups, dtype=np.int64)
        return groups.copy(), zeros, zeros.copy(), zeros.copy()

    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    candidates = _constant_candidates(constant_bits)  # (C,)

    best_mse = np.full(num_groups, np.inf)
    best_values = groups.copy()
    best_redundant = np.zeros(num_groups, dtype=np.int64)
    best_sparse = np.full(num_groups, num_columns, dtype=np.int64)
    best_constant = np.zeros(num_groups, dtype=np.int64)

    for constant in candidates:
        shifted_unclipped = groups + constant
        shifted = np.clip(shifted_unclipped, lo, hi)
        redundant = _redundant_columns_batch(shifted, bits)
        redundant = np.minimum(redundant, num_columns)
        sparse = num_columns - redundant
        pruned_shifted = _prune_low_columns(
            shifted, shifted_unclipped, sparse, bits, redundant, int(constant)
        )
        actual = pruned_shifted - constant
        mse = ((actual - groups) ** 2).mean(axis=1)

        improved = mse < best_mse
        if np.any(improved):
            best_mse = np.where(improved, mse, best_mse)
            best_values[improved] = actual[improved]
            best_redundant[improved] = redundant[improved]
            best_sparse[improved] = sparse[improved]
            best_constant[improved] = constant

    return best_values, best_redundant, best_sparse, best_constant


def _redundant_columns_batch(groups: np.ndarray, bits: int) -> np.ndarray:
    """Redundant-column count per group (vectorized, capped at the 2-bit field).

    A column right after the sign bit is redundant for the whole group exactly
    when every member still fits in one fewer two's-complement bit, so the
    group's redundant-column count is ``bits - 1 - bit_length(max_magnitude)``
    where the "magnitude" of a negative value ``v`` is ``-v - 1``.  This
    arithmetic form avoids materializing bit planes inside the 64-candidate
    search loop of Algorithm 1.
    """
    magnitudes = np.where(groups >= 0, groups, -groups - 1).max(axis=1)
    # bit_length(m) = floor(log2(m + 0.5)) + 1 for m >= 0 (the +0.5 keeps exact
    # powers of two on the right side of the floor and maps m == 0 to 0).
    bit_length = np.floor(np.log2(magnitudes.astype(np.float64) + 0.5)).astype(np.int64) + 1
    redundant = bits - (bit_length + 1)
    redundant = np.clip(redundant, 0, MAX_REDUNDANT_COLUMNS)
    return redundant.astype(np.int64)


def _prune_low_columns(
    shifted_clipped: np.ndarray,
    shifted_unclipped: np.ndarray,
    sparse: np.ndarray,
    bits: int,
    redundant: np.ndarray,
    constant: int,
) -> np.ndarray:
    """Zero the ``sparse`` low columns of every group, rounding each weight
    down or up to whichever multiple of ``2**sparse`` is closer to its
    (unclipped) shifted value, without violating the redundant-column bound
    and keeping the decoded weight (``pruned - constant``) in the word range.

    ``sparse`` and ``redundant`` are per-group; groups are processed in
    batches keyed by their sparse-column count.
    """
    result = shifted_clipped.copy()
    word_lo, word_hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    for k in np.unique(sparse):
        k = int(k)
        if k == 0:
            continue
        mask = sparse == k
        block = 1 << k
        subset = shifted_clipped[mask]
        target = shifted_unclipped[mask]
        down = (subset // block) * block
        up = down + block
        # The redundant columns recorded in metadata promise that the stored
        # value fits in (bits - redundant) bits; rounding up must not break
        # that promise, nor exceed the word range.
        reduced_hi = (1 << (bits - 1 - redundant[mask])) - 1
        up_limit = np.minimum(reduced_hi, word_hi)[:, None]
        err_down = np.abs(down - target).astype(np.float64)
        err_up = np.abs(up - target).astype(np.float64)
        # Keep the decoded weight (pruned - constant) within the word range:
        # out-of-range candidates only win if the alternative is structurally
        # forbidden (which never happens simultaneously; see the tests).
        out_of_range_penalty = float(1 << (2 * bits))
        err_down += np.where(down - constant < word_lo, out_of_range_penalty, 0.0)
        err_up += np.where(up - constant > word_hi, out_of_range_penalty, 0.0)
        err_up = np.where(up <= up_limit, err_up, np.inf)
        result[mask] = np.where(err_up < err_down, up, down)
    return result
