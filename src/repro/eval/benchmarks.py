"""Benchmark suite: shared model/weight/accelerator setup for the experiments.

Synthesizing weights and compressing a model with the moderate (zero-point
shifting) preset are the expensive steps of the evaluation, so the suite
caches both per ``(model, seed)`` and exposes factory helpers for the standard
accelerator line-up of Figures 12/13.  Experiments and benchmarks construct
one suite and share it.

With ``jobs > 1`` the suite runs its accelerator sweeps on a process pool:
the numpy-heavy compression inside each simulation is partly GIL-bound, so
one ``(model, accelerator)`` simulation per task across processes scales with
cores.  Workers rebuild an identical suite from :meth:`BenchmarkSuite.config`
(results are deterministic in it) and lean on the per-process artifact memo
(:mod:`repro.core.memo`) to synthesize/compress each model only once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from ..accelerators import (
    AntAccelerator,
    ArrayConfig,
    BitletAccelerator,
    BitVertAccelerator,
    BitWaveAccelerator,
    ModelPerformance,
    PragmaticAccelerator,
    SparTenAccelerator,
    StripesAccelerator,
)
from ..core.global_pruning import CONSERVATIVE_PRESET, MODERATE_PRESET
from ..core.hashing import stable_digest
from ..obs.timing import timed
from ..nn.model_zoo import ModelSpec, get_model
from ..nn.synthetic import ModelWeights, synthesize_model

__all__ = [
    "BenchmarkSuite",
    "BENCHMARK_MODEL_NAMES",
    "ACCELERATOR_NAMES",
    "performance_summary",
]


#: The seven DNN benchmarks of Table I, in the paper's order.
BENCHMARK_MODEL_NAMES = [
    "VGG-16",
    "ResNet-34",
    "ResNet-50",
    "ViT-Small",
    "ViT-Base",
    "BERT-MRPC",
    "BERT-SST2",
]

#: The accelerator line-up of Figures 12/13, in the paper's order.
ACCELERATOR_NAMES = [
    "SparTen",
    "ANT",
    "Stripes",
    "Pragmatic",
    "Bitlet",
    "BitWave",
    "BitVert (conservative)",
    "BitVert (moderate)",
]


@dataclass
class BenchmarkSuite:
    """Cached models, synthetic weights and accelerator factories.

    Parameters
    ----------
    seed:
        Seed for the synthetic weight generation.
    max_channels, max_reduction:
        Per-layer sampling caps passed to :func:`repro.nn.synthetic.synthesize_model`;
        the defaults keep a full 7-model × 8-accelerator sweep under a few
        minutes while preserving per-group statistics.
    """

    seed: int = 0
    max_channels: int = 128
    max_reduction: int = 1024
    array: ArrayConfig = field(default_factory=ArrayConfig)
    #: Process-pool width for :meth:`performances`; 1 means run in-process.
    jobs: int = 1
    _weights: dict[str, ModelWeights] = field(default_factory=dict, repr=False)
    _models: dict[str, ModelSpec] = field(default_factory=dict, repr=False)

    def model(self, name: str) -> ModelSpec:
        if name not in self._models:
            self._models[name] = get_model(name)
        return self._models[name]

    def weights(self, name: str) -> ModelWeights:
        if name not in self._weights:
            self._weights[name] = synthesize_model(
                self.model(name),
                seed=self.seed,
                max_channels=self.max_channels,
                max_reduction=self.max_reduction,
            )
        return self._weights[name]

    def config(self) -> dict:
        """The suite parameters that determine every result it can produce.

        Used by the service layer to key cached results: two suites with equal
        configs synthesize identical weights and therefore identical numbers.
        """
        return {
            "seed": self.seed,
            "max_channels": self.max_channels,
            "max_reduction": self.max_reduction,
            "array": asdict(self.array),
        }

    def config_digest(self) -> str:
        """Stable hex digest of :meth:`config`."""
        return stable_digest("BenchmarkSuite", self.config())

    def performances(
        self, models: list[str], accelerators: list[str] | None = None
    ) -> dict[str, dict[str, ModelPerformance]]:
        """Run the accelerator line-up over ``models``.

        Returns ``{model: {accelerator: ModelPerformance}}``.  With
        ``jobs > 1`` each ``(model, accelerator)`` simulation becomes one
        process-pool task; results are identical to the serial path because
        every simulation is deterministic in the suite config.

        The whole sweep is observed as one
        ``repro_operation_seconds{operation="benchmark.performances"}``
        sample — coarse on purpose: per-simulation timing would dominate the
        hot loop the perf gate watches.
        """
        with timed("benchmark.performances"):
            return self._performances(models, accelerators)

    def _performances(
        self, models: list[str], accelerators: list[str] | None = None
    ) -> dict[str, dict[str, ModelPerformance]]:
        accelerators = list(accelerators or ACCELERATOR_NAMES)
        results: dict[str, dict[str, ModelPerformance]] = {
            name: {} for name in models
        }
        if self.jobs > 1 and len(models) * len(accelerators) > 1:
            # Model-major task chunks: each task simulates one model on a
            # slice of the accelerator line-up, with just enough slices per
            # model to occupy the pool.  Coarser than one task per (model,
            # accelerator) pair so a model's synthesis + compression is
            # repeated in as few worker memos as possible, finer than one
            # task per model so a single-model sweep still parallelizes.
            slices_per_model = max(
                1, min(len(accelerators), -(-self.jobs // len(models)))
            )
            bounds = [
                round(index * len(accelerators) / slices_per_model)
                for index in range(slices_per_model + 1)
            ]
            config = self.config()
            with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                futures = [
                    (
                        model_name,
                        pool.submit(
                            _simulate_task, config, model_name, accelerators[lo:hi]
                        ),
                    )
                    for model_name in models
                    for lo, hi in zip(bounds, bounds[1:], strict=False)
                    if hi > lo
                ]
                for model_name, future in futures:
                    results[model_name].update(future.result())
            return results
        for model_name in models:
            model = self.model(model_name)
            weights = self.weights(model_name)
            instances = self.accelerators()
            for accel_name in accelerators:
                results[model_name][accel_name] = instances[accel_name].run_model(
                    model, weights
                )
        return results

    def accelerators(self, array: ArrayConfig | None = None) -> dict[str, object]:
        """The standard accelerator line-up (fresh instances, shared geometry)."""
        array = array or self.array
        return {
            "SparTen": SparTenAccelerator(array=array),
            "ANT": AntAccelerator(array=array),
            "Stripes": StripesAccelerator(array=array),
            "Pragmatic": PragmaticAccelerator(array=array),
            "Bitlet": BitletAccelerator(array=array),
            "BitWave": BitWaveAccelerator(array=array),
            "BitVert (conservative)": BitVertAccelerator(
                preset=CONSERVATIVE_PRESET, array=array
            ),
            "BitVert (moderate)": BitVertAccelerator(preset=MODERATE_PRESET, array=array),
        }


def _simulate_task(
    config: dict, model_name: str, accel_names: list[str]
) -> dict[str, ModelPerformance]:
    """Process-pool worker: some accelerators on one model, from a suite config."""
    suite = BenchmarkSuite(
        seed=config["seed"],
        max_channels=config["max_channels"],
        max_reduction=config["max_reduction"],
        array=ArrayConfig(**config["array"]),
    )
    model = suite.model(model_name)
    weights = suite.weights(model_name)
    instances = suite.accelerators()
    return {
        name: instances[name].run_model(model, weights) for name in accel_names
    }


def performance_summary(performance: ModelPerformance) -> dict:
    """Flatten a :class:`ModelPerformance` into a JSON-serializable summary.

    Keeps the model-level aggregates the experiments report (cycles, energy
    split, stall breakdown, execution time, EDP) and drops the per-layer
    records, which are implementation detail and dominate the object's size.
    """
    return {
        "accelerator": performance.accelerator,
        "model": performance.model,
        "num_layers": len(performance.layers),
        "total_cycles": float(performance.total_cycles),
        "compute_cycles": float(performance.compute_cycles),
        "dram_cycles": float(performance.dram_cycles),
        "useful_cycles": float(performance.useful_cycles),
        "intra_pe_stall_cycles": float(performance.intra_pe_stall_cycles),
        "inter_pe_stall_cycles": float(performance.inter_pe_stall_cycles),
        "total_energy_pj": float(performance.total_energy_pj),
        "on_chip_energy_pj": float(performance.on_chip_energy_pj),
        "off_chip_energy_pj": float(performance.off_chip_energy_pj),
        "execution_time_s": float(performance.execution_time_s),
        "energy_delay_product": float(performance.energy_delay_product),
        "clock_ghz": float(performance.clock_ghz),
    }
