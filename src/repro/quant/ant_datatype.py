"""ANT adaptive-datatype quantization.

ANT [16] quantizes each weight tensor to a low bit width (the paper evaluates
the 6-bit configuration, which ANT shows to be accuracy-safe without
retraining) by adaptively choosing, per tensor region, among several numeric
datatypes:

* ``int`` — plain uniform integers, good for uniform-ish distributions,
* ``pot`` — power-of-two values, good for very peaked distributions,
* ``flint`` (float-int) — ANT's hybrid type whose codes near zero behave like
  a float (fine resolution) and far from zero like an int (wide range), good
  for Gaussian-like DNN weights.

We implement all three codebooks at an arbitrary bit width and the adaptive
per-channel selection that picks the datatype with the lowest reconstruction
MSE — the decision rule ANT's framework uses.  The reconstruction is returned
in the input domain so KL/MSE/accuracy comparisons against BBS (Table II) use
the same pipeline as every other method.

:func:`ant_quantize` snaps all channels at once: one pass per codebook over
the whole matrix, and for INT8 inputs one pass over a table of the distinct
(channel maximum, value) pairs.  It is bit-identical to the per-channel loop
kept as :func:`ant_quantize_reference` (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metrics import ReconstructionMetricsMixin

__all__ = ["AntResult", "ant_quantize", "ant_quantize_reference", "datatype_codebook"]

#: Integer inputs are INT8 weights.
_INT8_MIN, _INT8_MAX = -(1 << 7), (1 << 7) - 1


@dataclass(frozen=True)
class AntResult(ReconstructionMetricsMixin):
    """Weights after ANT adaptive-datatype quantization."""

    values: np.ndarray
    bits: int
    chosen_datatypes: list[str]
    original: np.ndarray | None = None

    def effective_bits(self) -> float:
        """Stored bits per weight (the per-channel type tag is ~2 bits / channel)."""
        return float(self.bits)


def datatype_codebook(datatype: str, bits: int) -> np.ndarray:
    """Return the sorted list of representable values (codes) of a datatype.

    All codebooks are expressed on a normalized scale where the largest
    representable magnitude is 1.0; the quantizer scales each channel so its
    maximum absolute value maps to 1.0.

    Parameters
    ----------
    datatype:
        ``"int"``, ``"pot"`` (power of two), or ``"flint"`` (ANT's float-int).
    bits:
        Code width including the sign bit.
    """
    if bits < 3:
        raise ValueError("ANT datatypes need at least 3 bits")
    half_codes = 1 << (bits - 1)

    if datatype == "int":
        magnitudes = np.arange(half_codes) / float(half_codes - 1)
    elif datatype == "pot":
        # 0 plus powers of two spanning (half_codes - 1) octaves below 1.0.
        exponents = np.arange(half_codes - 1, dtype=np.float64)
        magnitudes = np.concatenate([[0.0], np.power(2.0, -exponents)[::-1]])
    elif datatype == "flint":
        # ANT's flint: half of the code space is spent on an int-like linear
        # region covering the top octave [0.5, 1.0], the other half on a
        # float-like region with per-octave subdivision below 0.5.  This gives
        # fine resolution near zero and wide range, matching the published
        # datatype's intent.
        linear_codes = half_codes // 2
        linear = 0.5 + 0.5 * np.arange(1, linear_codes + 1) / float(linear_codes)
        float_codes = half_codes - linear_codes - 1
        octaves = max(1, bits - 3)
        per_octave = max(1, float_codes // octaves)
        float_region: list[float] = [0.0]
        for octave in range(octaves):
            hi = 0.5 / (1 << octave)
            lo = hi / 2.0
            steps = np.linspace(lo, hi, per_octave, endpoint=False)
            float_region.extend(steps.tolist())
        magnitudes = np.unique(np.concatenate([float_region, linear]))
    else:
        raise ValueError(f"unknown ANT datatype {datatype!r}")

    codes = np.unique(np.concatenate([-magnitudes, magnitudes]))
    return np.sort(codes)


def _quantize_to_codebook(channel: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Snap every value of ``channel`` (normalized to [-1, 1]) to its nearest code."""
    indices = np.searchsorted(codebook, channel)
    indices = np.clip(indices, 1, len(codebook) - 1)
    left = codebook[indices - 1]
    right = codebook[indices]
    choose_right = np.abs(right - channel) < np.abs(left - channel)
    return np.where(choose_right, right, left)


def _validated(
    weights: np.ndarray, bits: int, datatypes: tuple[str, ...]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Check the inputs of both quantizers; return the weights and codebooks."""
    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ValueError(f"expected (channels, reduction), got {weights.shape}")
    if not datatypes:
        raise ValueError("datatypes must name at least one ANT datatype")
    # Unknown names and bits < 3 raise here, before any channel is touched.
    codebooks = {name: datatype_codebook(name, bits) for name in datatypes}
    if np.issubdtype(weights.dtype, np.integer):
        if weights.size and (weights.min() < _INT8_MIN or weights.max() > _INT8_MAX):
            raise ValueError(
                f"integer weights must lie in the signed 8-bit range "
                f"[{_INT8_MIN}, {_INT8_MAX}]"
            )
    elif not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    return weights, codebooks


def _to_output(weights: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    if not np.issubdtype(weights.dtype, np.integer):
        return reconstructed
    # A channel whose largest magnitude is 128 (a -128 weight) maps 127 to
    # 127/128, which can snap to the code 1.0 and so reconstruct as +128:
    # the clip keeps the result in the INT8 word.
    return np.clip(np.round(reconstructed), _INT8_MIN, _INT8_MAX).astype(np.int64)


def ant_quantize(
    weights: np.ndarray,
    bits: int = 6,
    datatypes: tuple[str, ...] = ("int", "pot", "flint"),
    keep_original: bool = True,
) -> AntResult:
    """Quantize a weight matrix with ANT's adaptive datatype selection.

    Each output channel is normalized by its maximum absolute value, snapped
    to each candidate codebook, and assigned the codebook with the lowest MSE
    (the first of ``datatypes`` on a tie).  All-zero channels are kept as
    they are and reported as ``"int"``.

    Integer weights must be INT8 values; float weights must be finite.
    Bit-identical to :func:`ant_quantize_reference`.
    """
    weights, codebooks = _validated(weights, bits, datatypes)
    work = weights.astype(np.float64)
    max_abs = np.abs(work).max(axis=1, initial=0.0)
    live = np.flatnonzero(max_abs)
    reconstructed = work.copy()
    chosen = ["int"] * len(work)
    if live.size:
        rows = work[live]
        snap_values, snap_scale, pair = rows, max_abs[live, None], None
        if np.issubdtype(weights.dtype, np.integer):
            # Every element is one of at most 128 x 256 (maximum, value)
            # pairs: snap the pairs once and gather.  Each element still
            # sees the same divide, snap and multiply as in the loop.
            levels, level_of_row = np.unique(max_abs[live], return_inverse=True)
            lo, hi = int(rows.min()), int(rows.max())
            values = np.arange(lo, hi + 1, dtype=np.float64)
            pair = level_of_row[:, None] * values.size + (weights[live].astype(np.intp) - lo)
            snap_values, snap_scale = values, levels[:, None]
        normalized = snap_values / snap_scale
        snapped = []
        for codebook in codebooks.values():
            candidate = _quantize_to_codebook(normalized, codebook) * snap_scale
            snapped.append(candidate if pair is None else np.take(candidate, pair))
        # Row means over the contiguous last axis sum each row in the same
        # pairwise order as the loop's 1-D np.mean; argmin keeps the first
        # minimum, the loop's strict-< tie-break.
        errors = np.stack([np.mean((candidate - rows) ** 2, axis=1) for candidate in snapped])
        best = np.argmin(errors, axis=0)
        reconstructed[live] = np.choose(best[:, None], snapped)
        names = list(codebooks)
        for row, index in zip(live.tolist(), best.tolist(), strict=True):
            chosen[row] = names[index]

    return AntResult(
        values=_to_output(weights, reconstructed),
        bits=bits,
        chosen_datatypes=chosen,
        original=weights.copy() if keep_original else None,
    )


def ant_quantize_reference(
    weights: np.ndarray,
    bits: int = 6,
    datatypes: tuple[str, ...] = ("int", "pot", "flint"),
    keep_original: bool = True,
) -> AntResult:
    """The original one-channel-at-a-time :func:`ant_quantize` (the oracle)."""
    weights, codebooks = _validated(weights, bits, datatypes)
    work = weights.astype(np.float64)
    reconstructed = np.empty_like(work)
    chosen: list[str] = []
    for index, channel in enumerate(work):
        max_abs = float(np.max(np.abs(channel))) if channel.size else 0.0
        if max_abs == 0.0:
            reconstructed[index] = channel
            chosen.append("int")
            continue
        normalized = channel / max_abs
        best_name = None
        best_mse = np.inf
        for name, codebook in codebooks.items():
            snapped = _quantize_to_codebook(normalized, codebook) * max_abs
            err = float(np.mean((snapped - channel) ** 2))
            if best_name is None or err < best_mse:
                best_mse = err
                best_name = name
                reconstructed[index] = snapped
        chosen.append(best_name)

    return AntResult(
        values=_to_output(weights, reconstructed),
        bits=bits,
        chosen_datatypes=chosen,
        original=weights.copy() if keep_original else None,
    )
