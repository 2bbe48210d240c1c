"""Built-in codecs: the six ``repro.quant`` backends plus BBS pruning and
lossless bit-plane encoding, wrapped behind the uniform :class:`Codec` API.

Numerical behaviour is identical to the bespoke entry points these codecs
wrap (the service's ``quantize_tensor`` scenario dispatches through them and
its results are digest-compatible with the pre-codec implementation):

========  =====================================================  =========
Codec     Wraps                                                  Lossless
========  =====================================================  =========
ptq       :func:`repro.quant.quantize_per_channel`               no
ant       :func:`repro.quant.ant_quantize`                       no
bitflip   :func:`repro.quant.bitflip_tensor`                     no
microscaling  :func:`repro.quant.microscaling_quantize`          no
noisyquant    :func:`repro.quant.noisyquant_quantize`            no
olive     :func:`repro.quant.olive_quantize`                     no
prune     :func:`repro.core.prune_tensor` (BBS binary pruning)   no
bitplane  :mod:`repro.core.bitplane` redundant-column encoding   yes
========  =====================================================  =========

The integer-domain codecs (``bitflip``, ``prune``, ``bitplane``) accept both
already-quantized integer matrices (used directly) and floating-point
matrices (symmetric per-channel PTQ at ``bits`` first, exactly like the
``quantize_tensor`` scenario always did); the reconstruction is returned in
the input domain either way, so MSE is always comparable across codecs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.bitplane import redundant_columns
from ..core.encoding import (
    MAX_REDUNDANT_COLUMNS,
    METADATA_BITS,
)
from .base import Codec, CompressionResult, as_weight_matrix
from .registry import register_codec

__all__ = [
    "AntCodec",
    "BitflipCodec",
    "BitplaneCodec",
    "MicroscalingCodec",
    "NoisyQuantCodec",
    "OliveCodec",
    "PruneCodec",
    "PTQCodec",
]


def _per_channel_codes(tensor: np.ndarray, bits: int):
    """Symmetric per-channel PTQ front end shared by the integer-domain codecs.

    Returns ``(codes, scales)`` with ``codes`` int64; integer input passes
    through with unit scales (it is already in the code domain).
    """
    from .. import quant

    if np.issubdtype(tensor.dtype, np.integer):
        return tensor.astype(np.int64), None
    quantized = quant.quantize_per_channel(tensor, bits=bits)
    return quantized.values, quantized.scales


def _to_input_domain(codes: np.ndarray, scales: np.ndarray | None) -> np.ndarray:
    """Map integer codes back to the caller's domain (float iff scaled)."""
    if scales is None:
        return codes
    return codes.astype(np.float64) * scales[:, None]


def _round_to_int_domain(reconstruction: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Round a float reconstruction back into an integer input's domain.

    Clips only against the *dtype's* representable range (overflow guard for
    the cast); the values themselves are bounded by the per-channel scales,
    so wide integer inputs reconstruct at their real magnitude instead of
    being crushed into a hardcoded int8 range.
    """
    info = np.iinfo(like.dtype)
    return np.clip(np.round(reconstruction), info.min, info.max).astype(like.dtype)


@register_codec
class PTQCodec(Codec):
    name = "ptq"
    version = "1"
    summary = (
        "Symmetric uniform post-training quantization (per-channel or "
        "per-tensor, optional MSE-optimal clipping)."
    )
    defaults = {"bits": 8, "per_channel": True, "calibrate": None}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        bits = int(params["bits"])
        calibrate = params["calibrate"]
        if calibrate is None:
            # Max-abs scaling is fine at 8 bits; clipping calibration only
            # pays off at aggressive precisions (mirrors the legacy scenario).
            calibrate = bits < 6
        quantizer = (
            quant.quantize_per_channel if params["per_channel"] else quant.quantize_per_tensor
        )
        quantized = quantizer(tensor.astype(np.float64), bits=bits, calibrate=bool(calibrate))
        reconstruction = quant.dequantize(quantized)
        if np.issubdtype(tensor.dtype, np.integer):
            reconstruction = _round_to_int_domain(reconstruction, tensor)
        return self._result(
            tensor,
            reconstruction,
            storage_bits=tensor.size * bits,
            params=params,
            payload=quantized,
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        from .. import quant

        if result.payload is None:
            return super().decompress(result)
        reconstruction = quant.dequantize(result.payload)
        if np.issubdtype(result.values.dtype, np.integer):
            reconstruction = _round_to_int_domain(reconstruction, result.values)
        return reconstruction


@register_codec
class AntCodec(Codec):
    name = "ant"
    version = "1"
    summary = "ANT adaptive-datatype quantization (int / power-of-two / flint)."
    defaults = {"bits": 6}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        result = quant.ant_quantize(tensor, bits=int(params["bits"]))
        counts: dict[str, int] = {}
        for datatype in result.chosen_datatypes:
            counts[datatype] = counts.get(datatype, 0) + 1
        return self._result(
            tensor,
            result.values,
            storage_bits=tensor.size * result.effective_bits(),
            params=params,
            payload=result,
            extras={f"datatype_{name}": float(n) for name, n in sorted(counts.items())},
        )


@register_codec
class BitflipCodec(Codec):
    name = "bitflip"
    version = "1"
    summary = "BitWave-style sign-magnitude zero-column bit-flip pruning."
    defaults = {"bits": 8, "num_columns": 4, "group_size": 32}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        bits = int(params["bits"])
        codes, scales = _per_channel_codes(tensor, bits)
        result = quant.bitflip_tensor(
            codes,
            int(params["num_columns"]),
            group_size=int(params["group_size"]),
            bits=bits,
        )
        reconstruction = _to_input_domain(result.values, scales)
        return self._result(
            tensor,
            reconstruction,
            storage_bits=result.storage_bits(),
            params=params,
            payload=(result, scales),
            extras={
                "inherent_zero_columns": float(result.inherent_zero_columns.sum()),
                "forced_zero_columns": float(result.forced_zero_columns.sum()),
            },
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        if result.payload is None:
            return super().decompress(result)
        pruned, scales = result.payload
        return _to_input_domain(pruned.values, scales)


@register_codec
class MicroscalingCodec(Codec):
    name = "microscaling"
    version = "1"
    summary = "MX shared-exponent block format (8-bit exponent per block)."
    defaults = {"bits": 6, "group_size": 32}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        result = quant.microscaling_quantize(
            tensor,
            element_bits=int(params["bits"]),
            block_size=int(params["group_size"]),
        )
        return self._result(
            tensor,
            result.values,
            storage_bits=tensor.size * result.effective_bits(),
            params=params,
            payload=result,
        )


@register_codec
class NoisyQuantCodec(Codec):
    name = "noisyquant"
    version = "1"
    summary = "NoisyQuant noisy-bias PTQ (calibrated dithering before rounding)."
    defaults = {"bits": 6, "seed": 0}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        result = quant.noisyquant_quantize(
            tensor, bits=int(params["bits"]), seed=int(params["seed"])
        )
        return self._result(
            tensor,
            result.values,
            storage_bits=tensor.size * result.effective_bits(),
            params=params,
            payload=result,
            extras={"noise_amplitude": float(result.noise_amplitude)},
        )


@register_codec
class OliveCodec(Codec):
    name = "olive"
    version = "1"
    summary = "Olive outlier-victim pair quantization (extended-range outliers)."
    defaults = {"bits": 4, "outlier_percentile": 99.0}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from .. import quant

        tensor = as_weight_matrix(tensor)
        result = quant.olive_quantize(
            tensor,
            bits=int(params["bits"]),
            outlier_percentile=float(params["outlier_percentile"]),
        )
        return self._result(
            tensor,
            result.values,
            storage_bits=tensor.size * result.effective_bits(),
            params=params,
            payload=result,
            extras={"outlier_fraction": float(result.outlier_fraction)},
        )


@register_codec
class PruneCodec(Codec):
    name = "prune"
    version = "1"
    summary = "BBS binary pruning (rounded-average / zero-point-shift columns)."
    defaults = {
        "bits": 8,
        "num_columns": 4,
        "strategy": "zero_point_shift",
        "group_size": 32,
    }

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from ..core import PruningStrategy, prune_tensor

        tensor = as_weight_matrix(tensor)
        bits = int(params["bits"])
        codes, scales = _per_channel_codes(tensor, bits)
        pruned = prune_tensor(
            codes,
            int(params["num_columns"]),
            PruningStrategy(params["strategy"]),
            group_size=int(params["group_size"]),
            bits=bits,
        )
        reconstruction = _to_input_domain(pruned.values, scales)
        return self._result(
            tensor,
            reconstruction,
            storage_bits=pruned.storage_bits(),
            params=params,
            payload=(pruned, scales),
            extras={"compression_ratio": float(pruned.compression_ratio())},
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        if result.payload is None:
            return super().decompress(result)
        pruned, scales = result.payload
        return _to_input_domain(pruned.values, scales)


@register_codec
class BitplaneCodec(Codec):
    name = "bitplane"
    version = "1"
    summary = (
        "Lossless bit-plane encoding: drops per-group redundant sign-extension "
        "columns (integer input reconstructs exactly)."
    )
    lossless = True
    defaults = {"bits": 8, "group_size": 32}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        from ..core.grouping import group_weights

        tensor = as_weight_matrix(tensor)
        bits = int(params["bits"])
        group_size = int(params["group_size"])
        codes, scales = _per_channel_codes(tensor, bits)
        grouped = group_weights(codes, group_size)

        # Redundant sign-extension columns per (channel, group), capped by the
        # 2-bit metadata field.
        redundant = np.minimum(
            redundant_columns(grouped.groups, bits), MAX_REDUNDANT_COLUMNS
        )

        per_group = np.where(
            redundant > 0,
            group_size * (bits - redundant) + METADATA_BITS,
            group_size * bits,
        )
        reconstruction = _to_input_domain(codes, scales)
        if scales is None:
            reconstruction = reconstruction.astype(tensor.dtype, copy=True)
        return self._result(
            tensor,
            reconstruction,
            storage_bits=int(per_group.sum()),
            params=params,
            payload=(codes, scales),
            extras={
                "redundant_columns": float(redundant.sum()),
                "compression_ratio": float(
                    grouped.groups.size * bits / per_group.sum()
                ),
            },
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        if result.payload is None:
            return super().decompress(result)
        codes, scales = result.payload
        return _to_input_domain(codes, scales)
