"""Post-training quantization (PTQ) substrate.

The paper's baseline models are 8-bit, per-channel, symmetrically quantized
DNNs (Section V-A) — the same baseline every compression method (BBS binary
pruning, BitWave bit-flip, Microscaling, NoisyQuant, ANT, Olive) starts from.
This module provides:

* symmetric per-channel / per-tensor uniform quantization with optional
  MSE-optimal clipping calibration,
* dequantization back to floating point,
* "naive PTQ below 8 bits" — re-quantizing an already-quantized 8-bit tensor
  to a lower precision while keeping a set of sensitive channels at 8 bits,
  which is the PTQ baseline of Figure 11.

All quantizers are deterministic and vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizedTensor",
    "quantize_per_channel",
    "quantize_per_tensor",
    "dequantize",
    "requantize_to_lower_bits",
    "optimal_clip_scale",
    "optimal_clip_scale_reference",
]


@dataclass(frozen=True)
class QuantizedTensor:
    """A symmetric, uniformly quantized weight matrix.

    Attributes
    ----------
    values:
        Integer codes of shape ``(channels, reduction)``.
    scales:
        Per-channel scale factors of shape ``(channels,)`` (a single repeated
        value for per-tensor quantization).  ``float = values * scales``.
    bits:
        Code word width.
    per_channel:
        Whether the scales are per-channel.
    """

    values: np.ndarray
    scales: np.ndarray
    bits: int
    per_channel: bool

    @property
    def num_channels(self) -> int:
        return self.values.shape[0]

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point weights."""
        return dequantize(self)

    def effective_bits(self) -> float:
        """Stored bits per weight (scales amortize to ~0 for realistic layers)."""
        return float(self.bits)


def _quant_bounds(bits: int) -> tuple[int, int]:
    if bits < 2:
        raise ValueError(f"need at least 2 bits for signed quantization, got {bits}")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


#: Byte budget of one block of the batched clip search's scratch arrays.
#: Rows (and, for very long rows, candidates) are processed in blocks of
#: at most this many bytes, so the search's peak memory does not grow
#: with the matrix.
CLIP_SEARCH_BLOCK_BYTES = 4 << 20

#: Unit roundoff of float64.
_UNIT_ROUNDOFF = 2.0**-53


def optimal_clip_scale(
    channel: np.ndarray, bits: int, num_candidates: int = 100
) -> float | np.ndarray:
    """MSE-optimal symmetric clipping scale for one weight channel, or per row.

    Sweeps ``num_candidates`` clip thresholds between 20 % and 100 % of the
    channel's max absolute value and returns the scale (step size) that
    minimizes the reconstruction MSE.  This is the standard MSE calibration
    used by per-channel PTQ frameworks (e.g. TensorRT-style calibration).

    A 2-D ``(rows, N)`` matrix is searched row by row in one call and gives a
    float64 array of ``rows`` scales; any other shape is one channel and
    gives a Python ``float``.  The result is bit-identical to
    :func:`optimal_clip_scale_reference`: the first candidate with the
    smallest MSE wins, and an all-zero (or empty) channel gets 1.0.

    Two exact batched searches are used, chosen per row from its values:

    * integer-valued rows with no more levels (``2 * max|x| + 1``) than
      elements score every candidate from the row's level histogram, keep
      only the candidates within the rounding-error bound of the best
      score, and re-measure those with the reference expression;
    * all other rows are scored densely, rows x candidates at a time, with
      the per-row mean reduced over the contiguous last axis so that the
      summation order is the reference's.
    """
    values = np.asarray(channel, dtype=np.float64)
    if values.ndim == 2:
        return _clip_scales(values, bits, num_candidates)
    return float(_clip_scales(values.reshape(1, -1), bits, num_candidates)[0])


def optimal_clip_scale_reference(
    channel: np.ndarray, bits: int, num_candidates: int = 100
) -> float:
    """One-channel candidate loop: the oracle :func:`optimal_clip_scale` matches."""
    channel = np.asarray(channel, dtype=np.float64)
    max_abs = float(np.max(np.abs(channel))) if channel.size else 0.0
    if max_abs == 0.0:
        return 1.0
    _, qmax = _quant_bounds(bits)
    best_scale = max_abs / qmax
    best_mse = np.inf
    for fraction in np.linspace(0.2, 1.0, num_candidates):
        clip = fraction * max_abs
        scale = clip / qmax
        codes = np.clip(np.round(channel / scale), *_quant_bounds(bits))
        err = float(np.mean((codes * scale - channel) ** 2))
        if err < best_mse:
            best_mse = err
            best_scale = scale
    return float(best_scale)


def _clip_scales(rows: np.ndarray, bits: int, num_candidates: int) -> np.ndarray:
    """Batched clip search over the rows of a ``(rows, N)`` float64 matrix."""
    lo, qmax = _quant_bounds(bits)
    fractions = np.linspace(0.2, 1.0, num_candidates)
    num_rows, length = rows.shape
    max_abs = np.max(np.abs(rows), axis=1, initial=0.0)
    live = max_abs != 0.0
    # The reference loop's starting scale, kept when no candidate beats inf.
    scales = np.where(live, max_abs / qmax, 1.0)
    if num_candidates == 0:
        return scales
    histogram = live & (2 * max_abs + 1 <= length)
    histogram[histogram] = np.all(rows[histogram] == np.round(rows[histogram]), axis=1)
    dense = live & ~histogram
    for select, search in ((histogram, _level_search), (dense, _dense_search)):
        if select.any():
            subset = rows if select.all() else rows[select]
            scales[select] = search(subset, max_abs[select], fractions, lo, qmax)
    return scales


def _squared_errors(values: np.ndarray, scales: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``(clip(round(values / scales)) * scales - values) ** 2``, broadcast.

    The reference's per-element expression, evaluated in place in one
    scratch array of the broadcast shape.
    """
    work = values / scales
    np.round(work, out=work)
    np.clip(work, lo, hi, out=work)
    work *= scales
    work -= values
    np.square(work, out=work)
    return work


def _first_minimum(mse: np.ndarray, candidate_scales: np.ndarray, initial: np.ndarray):
    """Scale of each row's first smallest MSE, as the reference loop picks it.

    The loop starts from ``best = inf`` and replaces it on a strict ``<``:
    NaN never wins, and a row whose MSEs are all NaN or inf keeps the
    loop's ``initial`` scale.
    """
    mse = np.where(np.isnan(mse), np.inf, mse)
    best = np.argmin(mse, axis=1)
    rows = np.arange(mse.shape[0])
    found = mse[rows, best] < np.inf
    return np.where(found, candidate_scales[rows, best], initial)


def _blocks(total: int, step: int):
    for start in range(0, total, step):
        yield slice(start, min(start + step, total))


def _dense_search(rows, max_abs, fractions, lo, qmax) -> np.ndarray:
    """Score every candidate on every element, rows x candidates per block."""
    num_rows, length = rows.shape
    num_candidates = fractions.size
    per_block = max(1, CLIP_SEARCH_BLOCK_BYTES // (8 * length))
    candidate_step = min(num_candidates, per_block)
    row_step = max(1, per_block // num_candidates)
    candidate_scales = fractions[None, :] * max_abs[:, None] / qmax
    mse = np.empty((num_rows, num_candidates))
    for row_block in _blocks(num_rows, row_step):
        values = rows[row_block, None, :]
        for cand_block in _blocks(num_candidates, candidate_step):
            scales = candidate_scales[row_block, cand_block, None]
            mse[row_block, cand_block] = _squared_errors(values, scales, lo, qmax).mean(axis=-1)
    return _first_minimum(mse, candidate_scales, max_abs / qmax)


def _level_search(rows, max_abs, fractions, lo, qmax) -> np.ndarray:
    """Exact search for integer-valued rows from their level histograms.

    Rows with the same ``max|x| = m`` share candidate scales, so one table
    of squared errors over the ``2m + 1`` levels serves them all; a row's
    candidate scores are its level counts times that table.  A score ``E``
    and the reference's MSE ``R`` both sum the same non-negative terms, in
    different orders: with ``g(k) = k u / (1 - k u)``, ``E`` lies within a
    factor ``1 +- g(L)`` of the exact sum (``L`` products and additions) and
    ``R`` within ``1 +- g(N)`` of it over ``N`` (``N - 1`` additions and
    the division).  So the reference's winner ``w`` has ``E_w <= E_min *
    (1 + g(N))(1 + g(L)) / ((1 - g(N))(1 - g(L)))``, which the bound
    ``E_min * (1 + 4 (g(N) + g(L)))`` covers with room for its own
    rounding.  Candidates above it cannot win; when more than one is
    below it, the survivors are re-measured with the reference expression
    and the first minimum wins.
    """
    num_rows, length = rows.shape
    candidate_scales = fractions[None, :] * max_abs[:, None] / qmax
    chosen = np.empty(num_rows)
    for magnitude in np.unique(max_abs):
        members = np.flatnonzero(max_abs == magnitude)
        num_levels = 2 * int(magnitude) + 1
        levels = np.arange(-magnitude, magnitude + 1)
        scales = candidate_scales[members[0]]
        slack = 1 + 4 * (_gamma(length) + _gamma(num_levels))
        # A row block holds ``length >= num_levels`` int64 codes per row.
        row_step = max(1, CLIP_SEARCH_BLOCK_BYTES // (8 * length))
        cand_step = min(scales.size, max(1, CLIP_SEARCH_BLOCK_BYTES // (8 * num_levels)))
        tables = [
            _squared_errors(levels[None, :], scales[block, None], lo, qmax)
            for block in _blocks(scales.size, cand_step)
        ]
        for row_block in _blocks(members.size, row_step):
            block = members[row_block]
            counts = _level_counts(rows[block], int(magnitude))
            scores = np.concatenate([counts @ table.T for table in tables], axis=1)
            chosen[block] = _rescore_survivors(
                rows[block], scores, slack, candidate_scales[block], lo, qmax
            )
    return chosen


def _gamma(terms: int) -> float:
    """Relative error bound of ``terms`` float64 roundings."""
    return terms * _UNIT_ROUNDOFF / (1 - terms * _UNIT_ROUNDOFF)


def _level_counts(rows: np.ndarray, magnitude: int) -> np.ndarray:
    """Per-row counts of the levels ``-magnitude .. magnitude`` (float64)."""
    num_rows = rows.shape[0]
    num_levels = 2 * magnitude + 1
    offsets = (np.arange(num_rows) * num_levels + magnitude)[:, None]
    flat = (rows.astype(np.int64) + offsets).ravel()
    counts = np.bincount(flat, minlength=num_rows * num_levels)
    return counts.reshape(num_rows, num_levels).astype(np.float64)


def _rescore_survivors(rows, scores, slack, candidate_scales, lo, qmax):
    """Winning scale per row among the candidates within ``slack`` of the best."""
    survivors = scores <= scores.min(axis=1, keepdims=True) * slack
    best = np.argmax(survivors, axis=1)
    row_index = np.arange(rows.shape[0])
    chosen = candidate_scales[row_index, best]
    tied = np.flatnonzero(survivors.sum(axis=1) > 1)
    if tied.size:
        tied_rows, tied_candidates = np.nonzero(survivors[tied])
        mse = np.full((tied.size, scores.shape[1]), np.inf)
        pairs_per_block = max(1, CLIP_SEARCH_BLOCK_BYTES // (8 * rows.shape[1]))
        for block in _blocks(tied_rows.size, pairs_per_block):
            pair_rows = tied[tied_rows[block]]
            values = rows[pair_rows]
            scales = candidate_scales[pair_rows, tied_candidates[block], None]
            mse[tied_rows[block], tied_candidates[block]] = _squared_errors(
                values, scales, lo, qmax
            ).mean(axis=-1)
        chosen[tied] = _first_minimum(mse, candidate_scales[tied], chosen[tied])
    return chosen


def quantize_per_channel(
    weights: np.ndarray, bits: int = 8, calibrate: bool = False
) -> QuantizedTensor:
    """Symmetric per-channel quantization of a floating-point weight matrix.

    Parameters
    ----------
    weights:
        ``(channels, reduction)`` floating-point matrix.
    bits:
        Target precision.
    calibrate:
        If True, use MSE-optimal clipping per channel instead of max-abs
        scaling.  Max-abs is the right default for 8-bit (negligible clipping
        benefit); calibration matters for aggressive precisions (< 6 bits).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    qmin, qmax = _quant_bounds(bits)
    if calibrate:
        scales = optimal_clip_scale(weights, bits)
    else:
        max_abs = np.max(np.abs(weights), axis=1)
        scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    codes = np.clip(np.round(weights / scales[:, None]), qmin, qmax).astype(np.int64)
    return QuantizedTensor(values=codes, scales=scales, bits=bits, per_channel=True)


def quantize_per_tensor(
    weights: np.ndarray, bits: int = 8, calibrate: bool = False
) -> QuantizedTensor:
    """Symmetric per-tensor quantization (single scale for the whole matrix)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    qmin, qmax = _quant_bounds(bits)
    if calibrate:
        scale = optimal_clip_scale(weights.ravel(), bits)
    else:
        max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
        scale = max_abs / qmax if max_abs > 0 else 1.0
    codes = np.clip(np.round(weights / scale), qmin, qmax).astype(np.int64)
    scales = np.full(weights.shape[0], scale)
    return QuantizedTensor(values=codes, scales=scales, bits=bits, per_channel=False)


def dequantize(quantized: QuantizedTensor) -> np.ndarray:
    """Map integer codes back to floating point values."""
    return quantized.values.astype(np.float64) * quantized.scales[:, None]


def requantize_to_lower_bits(
    quantized: QuantizedTensor,
    target_bits: int,
    sensitive_channels: np.ndarray | None = None,
    calibrate: bool = True,
) -> QuantizedTensor:
    """Naive PTQ below 8 bits: re-quantize an INT8 tensor to ``target_bits``.

    This is the "PTQ" baseline of Figure 11: coarse clipping and re-scaling of
    the already-quantized tensor so that only ``2**target_bits`` quantization
    levels remain.  Channels marked sensitive keep their original 8-bit codes
    (and scales); the returned tensor therefore has mixed precision, exactly
    like the BBS and BitWave configurations it is compared against.

    The returned codes are expressed back in the *original* 8-bit integer
    domain (i.e. they are multiples of the coarser step), so that KL
    divergence and MSE can be measured directly against the 8-bit baseline.
    """
    if target_bits >= quantized.bits:
        raise ValueError(
            f"target_bits ({target_bits}) must be below the current precision "
            f"({quantized.bits})"
        )
    values = quantized.values.astype(np.float64)
    channels = values.shape[0]
    if sensitive_channels is None:
        sensitive = np.zeros(channels, dtype=bool)
    else:
        sensitive = np.asarray(sensitive_channels, dtype=bool)
        if sensitive.shape != (channels,):
            raise ValueError(
                f"sensitive_channels must have shape ({channels},), got {sensitive.shape}"
            )

    qmin, qmax = _quant_bounds(target_bits)
    new_values = quantized.values.copy()
    rows = values[~sensitive]
    if calibrate:
        steps = optimal_clip_scale(rows, target_bits)
    else:
        max_abs = np.max(np.abs(rows), axis=1, initial=0.0)
        steps = np.where(max_abs > 0, max_abs / qmax, 1.0)
    codes = np.clip(np.round(rows / steps[:, None]), qmin, qmax)
    # Express the coarse codes back in the original integer domain.
    reconstructed = np.round(codes * steps[:, None])
    lo, hi = _quant_bounds(quantized.bits)
    new_values[~sensitive] = np.clip(reconstructed, lo, hi).astype(np.int64)

    return QuantizedTensor(
        values=new_values,
        scales=quantized.scales.copy(),
        bits=quantized.bits,
        per_channel=quantized.per_channel,
    )
