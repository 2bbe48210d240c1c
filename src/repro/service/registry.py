"""Scenario registry: every runnable job type of the service, by name.

A :class:`JobType` pairs a name with a runner and its parameter defaults;
parameters outside the declared set are rejected so that typos fail loudly
instead of silently hashing to a fresh cache entry.  Runners return
strictly-JSON data (see :func:`repro.eval.reporting.to_jsonable`), which is
what the cache persists and the HTTP API ships.

:func:`build_default_registry` exposes:

* every table/figure of the paper (:data:`repro.eval.EXPERIMENTS`),
* ``ablations`` and the full ``suite`` reproduction,
* ad-hoc jobs: ``prune_tensor`` (compress one synthetic matrix),
  ``codec_compress`` (any codec or pipeline of the :mod:`repro.codecs`
  registry on one synthetic matrix), ``quantize_tensor`` (its
  backward-compatible precursor, a thin dispatch over the same codecs)
  and ``simulate`` (one model on one accelerator of the line-up),
* ``campaign`` (run a whole declarative campaign spec and return its
  aggregate report; see :mod:`repro.campaign`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

__all__ = [
    "JobType",
    "ScenarioRegistry",
    "build_default_registry",
    "compute_registry_digest",
]


@dataclass(frozen=True)
class JobType:
    """One named, parameterized computation the service can run."""

    name: str
    description: str
    runner: Callable[..., Any] = field(repr=False)
    defaults: Mapping[str, Any] = field(default_factory=dict)

    def run(self, params: Mapping[str, Any] | None = None) -> Any:
        params = dict(params or {})
        unknown = sorted(set(params) - set(self.defaults))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for job type {self.name!r}; "
                f"accepted: {sorted(self.defaults)}"
            )
        merged = {**self.defaults, **params}
        return self.runner(**merged)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "params": {key: value for key, value in self.defaults.items()},
        }


class ScenarioRegistry:
    """Name -> :class:`JobType` mapping with validation."""

    def __init__(self) -> None:
        self._types: dict[str, JobType] = {}

    def register(self, job_type: JobType) -> JobType:
        if job_type.name in self._types:
            raise ValueError(f"job type {job_type.name!r} already registered")
        self._types[job_type.name] = job_type
        return job_type

    def add(
        self,
        name: str,
        description: str,
        runner: Callable[..., Any],
        defaults: Mapping[str, Any] | None = None,
    ) -> JobType:
        return self.register(JobType(name, description, runner, dict(defaults or {})))

    def get(self, name: str) -> JobType:
        try:
            return self._types[name]
        except KeyError:
            raise ValueError(
                f"unknown job type {name!r}; available: {self.names()}"
            ) from None

    def run(self, name: str, params: Mapping[str, Any] | None = None) -> Any:
        return self.get(name).run(params)

    def names(self) -> list[str]:
        return sorted(self._types)

    def describe(self) -> list[dict]:
        return [self._types[name].describe() for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __len__(self) -> int:
        return len(self._types)


# --------------------------------------------------------------------------- #
# Ad-hoc job runners
# --------------------------------------------------------------------------- #


def _synthetic_int_matrix(
    rows: int, cols: int, seed: int, scale: float, bits: int = 8
) -> np.ndarray:
    """One synthetic Gaussian integer matrix, clipped to the signed range."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    limit = 1 << (bits - 1)
    generator = np.random.default_rng(seed)
    return np.clip(
        np.round(generator.normal(0.0, scale, size=(rows, cols))), -limit, limit - 1
    ).astype(np.int64)


def _run_prune_tensor(
    rows: int,
    cols: int,
    seed: int,
    num_columns: int,
    strategy: str,
    group_size: int,
    bits: int,
    beta: float,
    scale: float,
) -> dict:
    """Compress one synthetic Gaussian integer matrix and report the outcome."""
    from ..core import PruningStrategy, prune_tensor

    weights = _synthetic_int_matrix(rows, cols, seed, scale, bits)

    sensitive = np.zeros(rows, dtype=bool)
    count = int(np.ceil(beta * rows))
    if count:
        order = np.argsort(-np.abs(weights).max(axis=1), kind="stable")
        sensitive[order[:count]] = True

    pruned = prune_tensor(
        weights,
        num_columns,
        PruningStrategy(strategy),
        group_size=group_size,
        bits=bits,
        sensitive_channels=sensitive,
    )
    return {
        "shape": [rows, cols],
        "strategy": PruningStrategy(strategy).value,
        "num_columns": num_columns,
        "group_size": group_size,
        "bits": bits,
        "beta": beta,
        "content_digest": pruned.content_digest(),
        "storage_bits": int(pruned.storage_bits()),
        "effective_bits": float(pruned.effective_bits()),
        "compression_ratio": float(pruned.compression_ratio()),
        "mse": float(pruned.mse()),
        "kl_divergence": float(pruned.kl_divergence()),
    }


def _run_simulate(
    model: str,
    accelerator: str,
    seed: int,
    max_channels: int,
    max_reduction: int,
) -> dict:
    """Run one benchmark model on one accelerator of the standard line-up."""
    from ..eval.benchmarks import BenchmarkSuite, performance_summary

    suite = BenchmarkSuite(seed=seed, max_channels=max_channels, max_reduction=max_reduction)
    instances = suite.accelerators()
    if accelerator not in instances:
        raise ValueError(
            f"unknown accelerator {accelerator!r}; available: {sorted(instances)}"
        )
    performance = instances[accelerator].run_model(suite.model(model), suite.weights(model))
    return {
        "suite": suite.config(),
        "suite_digest": suite.config_digest(),
        **performance_summary(performance),
    }


#: ``quantize_tensor`` backends -> the ``repro.codecs`` codec each maps to.
QUANT_BACKENDS = ("ant", "bitflip", "microscaling", "noisyquant", "olive", "ptq")

#: Scenario parameter names forwarded to each backend codec (the scenario's
#: uniform parameter surface is wider than any single codec's schema).
_BACKEND_CODEC_PARAMS: Mapping[str, tuple[str, ...]] = {
    "ant": ("bits",),
    "bitflip": ("bits", "num_columns", "group_size"),
    "microscaling": ("bits", "group_size"),
    "noisyquant": ("bits", "seed"),
    "olive": ("bits",),
    "ptq": ("bits",),
}


def _synthetic_float_matrix(rows: int, cols: int, seed: int, scale: float) -> np.ndarray:
    """The shared Gaussian tensor source of the codec-driven scenarios."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    generator = np.random.default_rng(seed)
    return generator.normal(0.0, scale, size=(rows, cols))


def _run_quantize_tensor(
    backend: str,
    rows: int,
    cols: int,
    seed: int,
    scale: float,
    bits: int,
    group_size: int,
    num_columns: int,
) -> dict:
    """Run one quantization backend over one synthetic Gaussian matrix.

    A thin dispatch over the :mod:`repro.codecs` registry, kept for
    backward compatibility with existing campaign specs: every backend name
    is also a codec name, and the new ``codec_compress`` scenario is the
    generic (and pipeline-capable) superset of this one.  ``group_size``
    doubles as the microscaling block size and the bit-flip dot-product
    group; ``num_columns`` only matters for ``bitflip``.
    """
    from .. import codecs

    if backend not in QUANT_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {sorted(QUANT_BACKENDS)}"
        )
    weights = _synthetic_float_matrix(rows, cols, seed, scale)
    candidates = {
        "bits": bits,
        "group_size": group_size,
        "num_columns": num_columns,
        "seed": seed,
    }
    params = {key: candidates[key] for key in _BACKEND_CODEC_PARAMS[backend]}
    result = codecs.run_codec(backend, weights, params)

    extras: dict[str, Any] = {}
    if backend == "ant":
        counts: dict[str, int] = {}
        for name in result.payload.chosen_datatypes:
            counts[name] = counts.get(name, 0) + 1
        extras["datatype_counts"] = dict(sorted(counts.items()))
    elif backend == "bitflip":
        extras["inherent_zero_columns"] = int(result.extras["inherent_zero_columns"])
        extras["forced_zero_columns"] = int(result.extras["forced_zero_columns"])
    elif backend == "noisyquant":
        extras["noise_amplitude"] = float(result.extras["noise_amplitude"])
    elif backend == "olive":
        extras["outlier_fraction"] = float(result.extras["outlier_fraction"])

    mse = result.mse()
    return {
        "backend": backend,
        "shape": [rows, cols],
        "bits": bits,
        "group_size": group_size,
        "seed": seed,
        "mse": float(mse),
        "normalized_mse": float(mse) / float(scale) ** 2,
        "effective_bits": float(result.effective_bits()),
        "content_digest": result.digest(),
        **extras,
    }


def _run_codec_compress(
    codec: Any,
    rows: int,
    cols: int,
    seed: int,
    scale: float,
    params: Any,
    stages: Any,
) -> dict:
    """Compress one synthetic Gaussian matrix with any registered codec.

    ``stages`` (a pipeline stage list) implies the ``pipeline`` codec;
    otherwise ``codec`` names any codec of the :mod:`repro.codecs` registry
    and ``params`` holds its parameters.  The result record carries the
    codec identity, canonical parameters, uniform scalar metrics, per-stage
    metrics for pipelines, and the artifact's provenance digest.
    """
    from .. import codecs
    from ..eval.reporting import to_jsonable

    if stages is not None:
        if codec not in (None, "pipeline"):
            raise ValueError(
                f'"stages" implies the pipeline codec; drop codec={codec!r} '
                "or fold it into the stage list"
            )
        if params:
            raise ValueError(
                '"stages" implies the pipeline codec; move "params" into '
                "the stage objects"
            )
        codec, codec_params = "pipeline", {"stages": stages}
    else:
        if not isinstance(codec, str) or not codec:
            raise ValueError('"codec" must name a registered codec (see /v1/codecs)')
        codec_params = params or {}
    if not isinstance(codec_params, Mapping):
        raise ValueError('"params" must be a JSON object')

    weights = _synthetic_float_matrix(rows, cols, seed, scale)
    result = codecs.run_codec(codec, weights, codec_params)
    record = result.to_jsonable()
    record["seed"] = seed
    record["scale"] = float(scale)
    record["normalized_mse"] = float(result.mse()) / float(scale) ** 2
    return to_jsonable(record)


def _run_campaign(spec: Any, jobs: int) -> dict:
    """Run a whole declarative campaign and return its aggregate report."""
    from ..campaign import parse_spec, run_campaign

    if not isinstance(spec, dict):
        raise ValueError('campaign needs a "spec" parameter holding the spec object')
    return run_campaign(parse_spec(spec), jobs=int(jobs))


def _run_experiment(name: str, **params: Any) -> dict:
    from ..eval import json_payload, run_experiment

    return json_payload(run_experiment(name, **params))


def _run_ablations(seed: int) -> dict:
    from ..eval import json_payload
    from ..eval.ablations import run_all_ablations

    return {name: json_payload(result) for name, result in run_all_ablations(seed=seed).items()}


def compute_registry_digest(registry: ScenarioRegistry) -> str:
    """Stable digest of a node's canonicalization surface.

    Hashes the scenario registry's full description (names and canonical
    default parameters) together with every codec schema — exactly the
    inputs that determine how a submission canonicalizes into a content
    digest.  Two processes with equal digests compute identical job digests
    for identical bodies, which is what lets the gateway route by digest and
    nodes verify it.
    """
    from .. import codecs
    from ..core.hashing import stable_digest

    return stable_digest(
        "repro-registry", registry.describe(), codecs.describe_codecs()
    )


def build_default_registry() -> ScenarioRegistry:
    """The standard service registry: experiments + ablations + ad-hoc jobs."""
    from ..eval import EXPERIMENTS, run_all

    registry = ScenarioRegistry()
    for name, experiment in EXPERIMENTS.items():
        runner = functools.partial(_run_experiment, name)
        registry.add(name, experiment.summary, runner, experiment.params)

    registry.add(
        "ablations",
        "Run every design-choice ablation study.",
        _run_ablations,
        {"seed": 0},
    )
    registry.add(
        "suite",
        "Run the full paper reproduction (every table and figure).",
        run_all,
        {"fast": True, "seed": 0},
    )
    registry.add(
        "prune_tensor",
        "Binary-prune one synthetic Gaussian INT8 matrix and report "
        "compression quality and footprint.",
        _run_prune_tensor,
        {
            "rows": 128,
            "cols": 1024,
            "seed": 0,
            "num_columns": 4,
            "strategy": "zero_point_shift",
            "group_size": 32,
            "bits": 8,
            "beta": 0.0,
            "scale": 24.0,
        },
    )
    registry.add(
        "quantize_tensor",
        "Quantize one synthetic Gaussian matrix with a repro.quant backend "
        "(ant, bitflip, microscaling, noisyquant, olive, ptq) and report "
        "reconstruction MSE and effective bits.",
        _run_quantize_tensor,
        {
            "backend": "microscaling",
            "rows": 128,
            "cols": 1024,
            "seed": 0,
            "scale": 1.0,
            "bits": 6,
            "group_size": 32,
            "num_columns": 4,
        },
    )
    registry.add(
        "codec_compress",
        "Compress one synthetic Gaussian matrix with any codec of the "
        "repro.codecs registry (GET /v1/codecs lists names and parameter "
        "schemas); a 'stages' list runs a chained pipeline codec.",
        _run_codec_compress,
        {
            "codec": None,
            "rows": 128,
            "cols": 1024,
            "seed": 0,
            "scale": 1.0,
            "params": {},
            "stages": None,
        },
    )
    registry.add(
        "campaign",
        "Expand a declarative campaign spec into its job grid, run every "
        "cell, and return the aggregate report (see repro.campaign).",
        _run_campaign,
        {"spec": None, "jobs": 1},
    )
    registry.add(
        "simulate",
        "Run one benchmark model on one accelerator and report cycles/energy.",
        _run_simulate,
        {
            "model": "ResNet-50",
            "accelerator": "BitVert (moderate)",
            "seed": 0,
            "max_channels": 96,
            "max_reduction": 768,
        },
    )
    return registry
