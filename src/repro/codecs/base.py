"""The ``Codec`` contract and the uniform ``CompressionResult`` it returns.

Every compression backend of this repository — the six ``repro.quant``
baselines, BBS binary pruning, and the lossless bit-plane encoding — has its
own entry-point function and result dataclass.  A :class:`Codec` wraps one of
them behind a single surface:

* ``compress(tensor, **params) -> CompressionResult`` — run the backend.
* ``decompress(result) -> np.ndarray`` — reconstruct the tensor from the
  stored artifact (``result.payload``); for the lossy backends this returns
  the reconstruction the backend produced, for the lossless ones it decodes.
* ``param_schema()`` — machine-readable parameter names, defaults, and types
  (the ``/v1/codecs`` discovery document).
* ``name`` / ``version`` — the identity used by the registry, the campaign
  engine, and the versioned service API.

:class:`CompressionResult` is deliberately uniform: reconstruction in the
input domain, total storage bits, the scalar-metric surface shared with every
legacy result dataclass (:class:`repro.core.metrics.ReconstructionMetricsMixin`),
and a provenance digest computed with :func:`repro.core.hashing.stable_digest`
so two compressions of identical inputs agree byte-for-byte on identity —
across processes and machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.hashing import stable_digest
from ..core.metrics import ReconstructionMetricsMixin
from ..obs.metrics import get_metrics
from ..obs.trace import span as _trace_span

#: Resolved once: the per-call get-or-create lookup (name/label validation)
#: is measurable against sub-millisecond codec compressions.
_COMPRESS_SECONDS = get_metrics().get("repro_codec_compress_seconds")

__all__ = [
    "Codec",
    "CodecError",
    "CompressionResult",
    "StageMetrics",
]


class CodecError(ValueError):
    """A codec was misused: unknown name, bad parameters, or a bad pipeline."""


@dataclass(frozen=True)
class StageMetrics:
    """Scalar metrics of one stage of a :class:`~repro.codecs.PipelineCodec`.

    ``stage_mse`` measures the stage against *its own input* (the previous
    stage's reconstruction); ``cumulative_mse`` measures the stage's output
    against the pipeline's original input tensor.
    """

    codec: str
    version: str
    params: dict
    stage_mse: float
    cumulative_mse: float
    effective_bits: float
    storage_bits: float

    def to_jsonable(self) -> dict:
        return {
            "codec": self.codec,
            "version": self.version,
            "params": dict(self.params),
            "stage_mse": float(self.stage_mse),
            "cumulative_mse": float(self.cumulative_mse),
            "effective_bits": float(self.effective_bits),
            "storage_bits": float(self.storage_bits),
        }


@dataclass
class CompressionResult(ReconstructionMetricsMixin):
    """What every codec returns: reconstruction, footprint, metrics, identity.

    Attributes
    ----------
    codec / version:
        Identity of the codec that produced this result.
    params:
        The fully canonicalized parameters (defaults merged in).
    values:
        Reconstructed tensor in the input domain (``reconstruction`` is an
        alias; the field is named ``values`` to share the metric mixin with
        the legacy result dataclasses).
    storage_bits:
        Total stored bits of the compressed artifact (payload + metadata).
    payload:
        Backend-specific artifact (e.g. a ``PrunedTensor``); what
        ``decompress`` decodes.  Excluded from the digest and JSON forms.
    original:
        The input tensor (kept for MSE reporting), or ``None``.
    extras:
        Backend-specific scalar metrics (e.g. ``outlier_fraction``).
    stages:
        Per-stage metrics when the codec is a pipeline, else ``None``.
    """

    codec: str
    version: str
    params: dict
    values: np.ndarray
    storage_bits: float
    payload: Any = field(default=None, repr=False)
    original: np.ndarray | None = field(default=None, repr=False)
    extras: dict[str, float] = field(default_factory=dict)
    stages: list[StageMetrics] | None = None

    @property
    def reconstruction(self) -> np.ndarray:
        return self.values

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.values.shape)

    def effective_bits(self) -> float:
        """Average stored bits per weight."""
        size = int(self.values.size)
        if size == 0:
            return 0.0
        return float(self.storage_bits) / size

    def extra_scalars(self) -> dict[str, float]:
        return {"storage_bits": float(self.storage_bits), **self.extras}

    def digest(self) -> str:
        """Stable provenance digest of the compressed artifact.

        Covers the codec identity, canonical parameters, and the
        reconstruction; independent of process, dict order, and whether the
        ``original``/``payload`` were kept.
        """
        return stable_digest(
            "repro-codec-result",
            self.codec,
            self.version,
            dict(self.params),
            np.ascontiguousarray(self.values),
            float(self.storage_bits),
        )

    def to_jsonable(self) -> dict:
        """Strict-JSON record: identity, shape, metrics, digest, stage list."""
        record = {
            "codec": self.codec,
            "version": self.version,
            "params": _jsonable_params(self.params),
            "shape": list(self.values.shape),
            "digest": self.digest(),
            "metrics": super().to_jsonable(),
        }
        if self.stages is not None:
            record["stages"] = [stage.to_jsonable() for stage in self.stages]
        return record


def _jsonable_params(params: Mapping[str, Any]) -> dict:
    from ..eval.reporting import to_jsonable

    return {key: to_jsonable(value) for key, value in dict(params).items()}


class Codec:
    """Base class every codec derives from.

    Subclasses set the class attributes and implement ``compress``:

    * ``name`` — registry key (``[a-z0-9_]+``).
    * ``version`` — bumped on any change that alters results for identical
      inputs (the digest covers it, so caches roll over automatically).
    * ``summary`` — one line for discovery listings.
    * ``defaults`` — parameter name -> default value; the accepted parameter
      set (unknown parameters are rejected, exactly like the service
      registry's job types).

    Codecs are stateless: ``compress`` takes every knob as a keyword
    argument, so one instance can serve concurrent callers.
    """

    name: str = ""
    version: str = "1"
    summary: str = ""
    defaults: Mapping[str, Any] = {}
    #: Lossless codecs reconstruct bit-exactly (mse == 0 on integer input).
    lossless: bool = False

    def compress(self, tensor: np.ndarray, **params: Any) -> CompressionResult:
        raise NotImplementedError

    def instrumented_compress(
        self, tensor: np.ndarray, **params: Any
    ) -> CompressionResult:
        """``compress`` wrapped in a ``codec.compress`` trace span and the
        ``repro_codec_compress_seconds{codec}`` histogram.

        The one observed entry point for top-level compressions —
        :func:`~repro.codecs.registry.run_codec` routes through it — so the
        span joins whatever trace is active (an HTTP job, a campaign cell)
        and every backend is measured identically.  Pipeline *stages* are
        instrumented separately (``repro_pipeline_stage_seconds``) and call
        ``compress`` directly, so this histogram counts whole invocations,
        not inner stages twice.
        """
        start = time.perf_counter()
        try:
            with _trace_span("codec.compress", attrs={"codec": self.name}):
                return self.compress(tensor, **params)
        finally:
            _COMPRESS_SECONDS.observe(time.perf_counter() - start, codec=self.name)

    def decompress(self, result: CompressionResult) -> np.ndarray:
        """Reconstruct the tensor from ``result``'s stored artifact.

        The default decodes nothing: codecs whose payload *is* the
        reconstruction simply return it.  Codecs with a genuine encoded form
        override this to decode ``result.payload``.
        """
        if result.codec != self.name:
            raise CodecError(
                f"codec {self.name!r} cannot decompress a {result.codec!r} result"
            )
        return result.values

    @classmethod
    def param_schema(cls) -> dict:
        """Machine-readable description served by ``GET /v1/codecs``."""
        return {
            "name": cls.name,
            "version": cls.version,
            "summary": cls.summary,
            "lossless": cls.lossless,
            "params": {
                key: {
                    "default": default,
                    "type": type(default).__name__ if default is not None else "any",
                }
                for key, default in sorted(cls.defaults.items())
            },
        }

    @classmethod
    def validate_params(cls, params: Mapping[str, Any] | None) -> dict:
        """Merge ``params`` over the defaults, rejecting unknown names."""
        params = dict(params or {})
        unknown = sorted(set(params) - set(cls.defaults))
        if unknown:
            raise CodecError(
                f"unknown parameter(s) {unknown} for codec {cls.name!r}; "
                f"accepted: {sorted(cls.defaults)}"
            )
        return {**cls.defaults, **params}

    # ------------------------------------------------------------------ #
    # Shared helpers for building results
    # ------------------------------------------------------------------ #

    def _result(
        self,
        tensor: np.ndarray,
        reconstruction: np.ndarray,
        storage_bits: float,
        params: Mapping[str, Any],
        payload: Any = None,
        extras: Mapping[str, float] | None = None,
        stages: list[StageMetrics] | None = None,
    ) -> CompressionResult:
        return CompressionResult(
            codec=self.name,
            version=self.version,
            params=dict(params),
            values=reconstruction,
            storage_bits=float(storage_bits),
            payload=payload,
            original=np.asarray(tensor),
            extras=dict(extras or {}),
            stages=stages,
        )


def as_weight_matrix(tensor: Any) -> np.ndarray:
    """Validate codec input: a 2-D ``(channels, reduction)`` numeric matrix."""
    tensor = np.asarray(tensor)
    if tensor.ndim != 2:
        raise CodecError(f"expected a 2-D (channels, reduction) matrix, got {tensor.shape}")
    if tensor.size == 0:
        raise CodecError("cannot compress an empty tensor")
    if not (
        np.issubdtype(tensor.dtype, np.integer)
        or np.issubdtype(tensor.dtype, np.floating)
    ):
        raise CodecError(f"expected a numeric matrix, got dtype {tensor.dtype}")
    return tensor


__all__ += ["as_weight_matrix"]
