"""The ``pipeline`` codec: chain codecs with per-stage metrics.

A pipeline is described by a ``stages`` list, each stage naming a registered
codec and its parameters::

    run_codec("pipeline", tensor, {"stages": [
        {"codec": "prune", "params": {"num_columns": 2}},
        {"codec": "ptq", "params": {"bits": 6}},
        {"codec": "bitplane", "params": {}},
    ]})

Each stage compresses the previous stage's reconstruction (the classic
prune -> quantize -> encode flow), so the final reconstruction reflects the
whole chain.  The result's ``stages`` field records, per stage, the MSE
against that stage's own input, the cumulative MSE against the pipeline's
original input, and the stage's storage footprint; the pipeline's own
``storage_bits`` is the *final* stage's footprint — that is the artifact a
deployment would actually store.

Pipelines are themselves codecs, so they appear in ``/v1/codecs``, can be
submitted through ``/v1/compress``, and can be swept by campaign
``pipeline:`` grids.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

import numpy as np

from ..core.metrics import mse as _mse
from ..obs.metrics import get_metrics
from ..obs.trace import span as _trace_span
from .base import Codec, CodecError, CompressionResult, StageMetrics
from .registry import get_codec, register_codec

__all__ = ["PipelineCodec", "validate_stages"]


def validate_stages(stages: Any) -> list[dict]:
    """Validate and canonicalize a pipeline ``stages`` list.

    Each entry must be ``{"codec": <registered name>, "params": {...}}``
    (``params`` optional); parameters are canonicalized against the stage
    codec's defaults so two spellings of the same pipeline share a digest.
    Nested pipelines are rejected — flatten the stages instead.
    """
    if not isinstance(stages, (list, tuple)) or not stages:
        raise CodecError('"stages" must be a non-empty list of stage objects')
    canonical: list[dict] = []
    for position, entry in enumerate(stages):
        if not isinstance(entry, Mapping):
            raise CodecError(f"stages[{position}] must be an object, got {entry!r}")
        unknown = sorted(set(entry) - {"codec", "params"})
        if unknown:
            raise CodecError(f"stages[{position}]: unknown field(s) {unknown}")
        name = entry.get("codec")
        if not isinstance(name, str) or not name:
            raise CodecError(f"stages[{position}] needs a non-empty string 'codec'")
        if name == PipelineCodec.name:
            raise CodecError(
                f"stages[{position}]: pipelines cannot nest; flatten the stages"
            )
        codec = get_codec(name)  # raises CodecError on unknown names
        params = entry.get("params", {})
        if not isinstance(params, Mapping):
            raise CodecError(f"stages[{position}]: 'params' must be an object")
        try:
            merged = codec.validate_params(params)
        except CodecError as error:
            raise CodecError(f"stages[{position}]: {error}") from None
        canonical.append({"codec": name, "params": merged})
    return canonical


@register_codec
class PipelineCodec(Codec):
    name = "pipeline"
    version = "1"
    summary = "Chain registered codecs (e.g. prune -> ptq -> bitplane) with per-stage metrics."
    defaults = {"stages": None}

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        stages = validate_stages(params.get("stages"))
        original = np.asarray(tensor)

        current = original
        stage_metrics: list[StageMetrics] = []
        last: CompressionResult | None = None
        stage_seconds = get_metrics().get("repro_pipeline_stage_seconds")
        for position, entry in enumerate(stages):
            codec = get_codec(entry["codec"])
            # One span + one latency sample per stage; timing stays out of
            # StageMetrics because those feed result payloads and campaign
            # reports, which must be byte-identical across runs.
            stage_start = time.perf_counter()
            with _trace_span(
                "pipeline.stage", attrs={"codec": codec.name, "position": position}
            ):
                result = codec.compress(current, **entry["params"])
            stage_seconds.observe(
                time.perf_counter() - stage_start, codec=codec.name
            )
            stage_metrics.append(
                StageMetrics(
                    codec=codec.name,
                    version=codec.version,
                    params=dict(entry["params"]),
                    stage_mse=float(result.mse()),
                    cumulative_mse=_mse(original, result.values),
                    effective_bits=float(result.effective_bits()),
                    storage_bits=float(result.storage_bits),
                )
            )
            current = result.values
            last = result

        assert last is not None  # validate_stages guarantees >= 1 stage
        return self._result(
            original,
            current,
            storage_bits=last.storage_bits,
            params={"stages": stages},
            payload=last,
            extras={"num_stages": float(len(stages))},
            stages=stage_metrics,
        )

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Decode the final stage's artifact (the stored representation)."""
        if result.payload is None:
            return super().decompress(result)
        final: CompressionResult = result.payload
        return get_codec(final.codec).decompress(final)
