"""Binary pruning strategy 1: rounded column averaging (Figure 4).

Given a weight group and a target number of columns to prune, the strategy

1. removes up to 3 *redundant* columns — columns right after the sign column
   whose content equals the sign column for every group member (these cost
   nothing to drop),
2. replaces the remaining-to-prune lowest-significance columns of every weight
   with a single shared constant: the rounded average of the values those low
   columns held, which minimizes the group MSE among all shared constants,
3. records that constant in the 6-bit BBS-constant metadata field.

The strategy is cheap and works well for small pruning budgets (2 columns in
the paper's conservative setting) because the low bits of nearby weights tend
to hold similar values.
"""

from __future__ import annotations

import numpy as np

from .bitplane import _validated, redundant_columns
from .encoding import (
    MAX_PRUNED_COLUMNS,
    MAX_REDUNDANT_COLUMNS,
    PrunedGroup,
    PruningStrategy,
)

__all__ = ["rounded_average_group", "rounded_average_groups"]


def _check_target(num_columns: int, bits: int) -> None:
    if num_columns < 0:
        raise ValueError(f"num_columns must be non-negative, got {num_columns}")
    if num_columns > MAX_PRUNED_COLUMNS:
        raise ValueError(
            f"the BBS encoding prunes at most {MAX_PRUNED_COLUMNS} columns of a "
            f"{bits}-bit weight, got {num_columns}"
        )


def rounded_average_group(
    group: np.ndarray, num_columns: int, bits: int = 8
) -> PrunedGroup:
    """Apply rounded column averaging to a single weight group.

    Parameters
    ----------
    group:
        1-D integer array (the weights of one group) in the signed ``bits``
        range.
    num_columns:
        Total number of bit columns to prune (redundant + averaged).
    bits:
        Weight word width.

    Returns
    -------
    PrunedGroup
        The pruned group; its ``values`` are the actual weights after
        compression and decode exactly from the BBS encoding.
    """
    group = _validated(group, bits)
    _check_target(num_columns, bits)
    if group.ndim != 1:
        raise ValueError(f"expected a 1-D group, got shape {group.shape}")
    if num_columns == 0:
        return PrunedGroup(
            values=group.astype(np.int64),
            num_redundant=0,
            num_sparse=0,
            constant=0,
            strategy=PruningStrategy.ROUNDED_AVERAGE,
            bits=bits,
        )
    pruned_values, num_redundant, num_sparse, constant = _rounded_average_core(
        group[None, :].astype(np.int64), num_columns, bits
    )
    return PrunedGroup(
        values=pruned_values[0],
        num_redundant=int(num_redundant[0]),
        num_sparse=int(num_sparse[0]),
        constant=int(constant[0]),
        strategy=PruningStrategy.ROUNDED_AVERAGE,
        bits=bits,
    )


def rounded_average_groups(
    groups: np.ndarray, num_columns: int, bits: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rounded averaging over many groups at once.

    Parameters
    ----------
    groups:
        2-D array of shape ``(num_groups, group_size)``.
    num_columns:
        Columns to prune in every group.

    Returns
    -------
    tuple
        ``(pruned_values, num_redundant, num_sparse, constants)`` where
        ``pruned_values`` has the same shape as ``groups`` and the other three
        are 1-D per-group arrays.
    """
    groups = _validated(groups, bits)
    if groups.ndim != 2:
        raise ValueError(f"expected (num_groups, group_size), got {groups.shape}")
    _check_target(num_columns, bits)
    if num_columns == 0:
        zeros = np.zeros(groups.shape[0], dtype=np.int64)
        return groups.astype(np.int64), zeros, zeros.copy(), zeros.copy()
    return _rounded_average_core(groups.astype(np.int64), num_columns, bits)


def _rounded_average_core(
    groups: np.ndarray, num_columns: int, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    num_groups, _ = groups.shape
    num_redundant = np.minimum(
        redundant_columns(groups, bits), min(MAX_REDUNDANT_COLUMNS, num_columns)
    )
    num_sparse = (num_columns - num_redundant).astype(np.int64)

    pruned = groups.copy()
    constants = np.zeros(num_groups, dtype=np.int64)
    # Groups sharing the same number of sparse columns can be handled together.
    for sparse_cols in np.unique(num_sparse):
        k = int(sparse_cols)
        mask = num_sparse == k
        if k == 0:
            continue
        block = 1 << k
        subset = groups[mask]
        # Low k bits as an unsigned value in [0, 2**k); Python/numpy floor
        # division gives the right base for negative two's-complement values.
        low = np.mod(subset, block)
        base = subset - low
        # Rounded average of the low parts, one constant per group.  Round
        # half to even mirrors numpy and keeps the estimator unbiased.
        avg = np.rint(low.mean(axis=1)).astype(np.int64)
        avg = np.clip(avg, 0, block - 1)
        pruned[mask] = base + avg[:, None]
        constants[mask] = avg

    return pruned, num_redundant, num_sparse, constants
