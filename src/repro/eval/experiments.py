"""Experiment harness: one function per table/figure of the paper's evaluation.

Every function returns a dict with at least a ``rows`` key (a list of row
dictionaries, one per bar / table line of the original figure) plus any
experiment-specific extras, and can be rendered with
:func:`repro.eval.reporting.format_table`.  EXPERIMENTS.md records the
paper-reported values next to the values these functions produce.

The accuracy-related experiments cannot use ImageNet/GLUE/Wikitext offline, so
they report (a) the paper's own distribution-level proxy — KL divergence and
MSE of the compressed weights against the 8-bit baseline — and (b) a real
end-to-end accuracy measurement on a small numpy MLP trained on a synthetic
task (Figure 11 and Tables II/III), and (c) an output-distortion measurement
for the LLM study (Figure 17).  The substitutions are listed in DESIGN.md.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .benchmarks import ACCELERATOR_NAMES, BENCHMARK_MODEL_NAMES, BenchmarkSuite
from .reporting import format_table, geometric_mean, to_jsonable
from ..accelerators import (
    ArrayConfig,
    BitletAccelerator,
    BitVertAccelerator,
    BitWaveAccelerator,
    ModelPerformance,
    PragmaticAccelerator,
    StripesAccelerator,
    bitvert_pe,
    olive_pe,
    PAPER_TABLE_IV,
    PAPER_TABLE_V,
    PAPER_TABLE_VI,
    PE_BUILDERS,
)
from ..core import (
    CONSERVATIVE_PRESET,
    MODERATE_PRESET,
    PruningPreset,
    PruningStrategy,
    global_binary_prune,
    kl_divergence,
    mse,
    normalized_kl,
    prune_tensor,
    sparsity_report,
)
from ..nn.model_zoo import get_model, llama3_8b
from ..nn.synthetic import LayerWeights, synthesize_model
from ..nn.trainer import (
    MLPClassifier,
    accuracy_under_compression,
    make_classification_dataset,
)
from ..quant import (
    ant_quantize,
    bitflip_tensor,
    microscaling_quantize,
    noisyquant_quantize,
    olive_quantize,
    quantize_per_channel,
    requantize_to_lower_bits,
)

__all__ = [
    "figure1_motivation",
    "figure3_sparsity_comparison",
    "figure6_kl_divergence",
    "figure11_accuracy",
    "table1_models",
    "table2_ant_comparison",
    "table3_ptq_comparison",
    "figure12_speedup",
    "figure13_energy",
    "figure14_load_balance",
    "figure15_stall_breakdown",
    "table4_pe_design_space",
    "table5_pe_comparison",
    "figure16_pareto",
    "figure17_llm",
    "table6_olive_pe",
    "json_payload",
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
    "run_all",
]


def json_payload(result: dict) -> dict:
    """Strictly-JSON view of one experiment result.

    Experiment dicts mix serializable fields (``rows``, ``table``) with live
    objects: the ``results`` key of Figures 12/13 holds ``ModelPerformance``
    instances whose per-layer records are orders of magnitude bigger than the
    rows they summarize, so that key is dropped outright.  Any remaining field
    that does not survive :func:`repro.eval.reporting.to_jsonable` is dropped
    rather than half-serialized.
    """
    payload: dict = {}
    for key, value in result.items():
        if key == "results":
            continue
        try:
            payload[key] = to_jsonable(value)
        except TypeError:
            continue
    return payload


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #


def _sensitive_masks(weights: dict[str, LayerWeights], beta: float, ch: int = 32):
    """Per-layer sensitive-channel masks using the global selection of Algorithm 2."""
    from ..core.global_pruning import select_sensitive_channels

    scores = {name: lw.channel_scores for name, lw in weights.items()}
    return select_sensitive_channels(scores, beta=beta, channel_parallelism=ch)


@dataclass
class CompressionOutcome:
    """A compression method applied to a whole (synthetic) model."""

    method: str
    effective_bits: float
    mean_kl: float
    mean_mse: float
    compression_ratio: float


def _compress_model(
    weights: dict[str, LayerWeights],
    method: str,
    group_size: int = 32,
) -> CompressionOutcome:
    """Apply one compression method to every layer and report KL/MSE/footprint.

    The supported methods mirror the paper's comparisons: ``bbs_cons`` /
    ``bbs_mod`` (binary pruning presets), ``bitwave`` (zero-column bit-flip),
    ``ptq4`` / ``ptq5`` / ``ptq6`` (naive sub-8-bit PTQ), ``microscaling6``,
    ``noisyquant6``, ``ant6`` and ``olive4``.
    """
    kls: list[float] = []
    mses: list[float] = []
    stored_bits = 0.0
    total_weights = 0

    preset_map = {"bbs_cons": CONSERVATIVE_PRESET, "bbs_mod": MODERATE_PRESET}
    if method in preset_map:
        preset = preset_map[method]
        layer_ints = {name: lw.int_weights for name, lw in weights.items()}
        scores = {name: lw.channel_scores for name, lw in weights.items()}
        result = global_binary_prune(layer_ints, scores, preset=preset)
        for pruned in result.pruned_layers.values():
            kls.append(pruned.kl_divergence())
            mses.append(pruned.mse())
            stored_bits += pruned.storage_bits()
            total_weights += pruned.values.size
    else:
        beta = 0.10 if method in ("bitwave2", "bitwave") else 0.20
        masks = _sensitive_masks(weights, beta=beta)
        for name, layer in weights.items():
            original = layer.int_weights
            sensitive = masks[name]
            if method in ("bitwave", "bitwave2", "bitwave4"):
                columns = {"bitwave": 3, "bitwave2": 2, "bitwave4": 4}[method]
                result = bitflip_tensor(
                    original, columns, group_size=group_size, sensitive_channels=sensitive
                )
                compressed = result.values
                stored_bits += result.storage_bits()
            elif method.startswith("ptq"):
                bits = int(method[len("ptq"):])
                requantized = requantize_to_lower_bits(
                    layer.quantized, bits, sensitive_channels=sensitive
                )
                compressed = requantized.values
                fraction_sensitive = sensitive.mean() if sensitive.size else 0.0
                stored_bits += original.size * (
                    fraction_sensitive * 8 + (1 - fraction_sensitive) * bits
                )
            elif method == "microscaling6":
                compressed = microscaling_quantize(original, 6, group_size).values
                stored_bits += original.size * (6 + 8 / group_size)
            elif method == "noisyquant6":
                compressed = noisyquant_quantize(original, 6).values
                stored_bits += original.size * 6
            elif method == "ant6":
                compressed = ant_quantize(original, 6).values
                stored_bits += original.size * 6
            elif method == "olive4":
                compressed = olive_quantize(original, 4).values
                stored_bits += original.size * 4
            else:
                raise ValueError(f"unknown compression method {method!r}")
            kls.append(kl_divergence(original, compressed))
            mses.append(mse(original, compressed))
            total_weights += original.size

    effective = stored_bits / total_weights if total_weights else 0.0
    ratio = 8.0 / effective if effective else float("inf")
    return CompressionOutcome(
        method=method,
        effective_bits=float(effective),
        mean_kl=float(np.mean(kls)) if kls else 0.0,
        mean_mse=float(np.mean(mses)) if mses else 0.0,
        compression_ratio=float(ratio),
    )


def _mlp_compressors() -> dict[str, object]:
    """Per-layer INT8 compression callbacks for the end-to-end MLP experiment."""

    def bbs(preset: PruningPreset):
        def compress(name: str, values: np.ndarray, scales: np.ndarray) -> np.ndarray:
            del name, scales
            count = int(np.ceil(preset.beta * values.shape[0]))
            order = np.argsort(-np.abs(values).max(axis=1), kind="stable")
            sensitive = np.zeros(values.shape[0], dtype=bool)
            sensitive[order[:count]] = True
            return prune_tensor(
                values,
                preset.num_columns,
                preset.strategy,
                group_size=preset.group_size,
                sensitive_channels=sensitive,
                keep_original=False,
            ).values

        return compress

    def bitwave(columns: int):
        def compress(name: str, values: np.ndarray, scales: np.ndarray) -> np.ndarray:
            del name, scales
            count = int(np.ceil(0.10 * values.shape[0]))
            order = np.argsort(-np.abs(values).max(axis=1), kind="stable")
            sensitive = np.zeros(values.shape[0], dtype=bool)
            sensitive[order[:count]] = True
            return bitflip_tensor(
                values, columns, sensitive_channels=sensitive, keep_original=False
            ).values

        return compress

    def ptq(bits: int):
        def compress(name: str, values: np.ndarray, scales: np.ndarray) -> np.ndarray:
            del name
            quantized = quantize_per_channel(values.astype(np.float64) * scales[:, None], 8)
            return requantize_to_lower_bits(quantized, bits).values

        return compress

    return {
        "INT8 baseline": lambda name, values, scales: values,
        "PTQ (6-bit)": ptq(6),
        "PTQ (4-bit)": ptq(4),
        "BitWave (4 cols)": bitwave(4),
        "BBS conservative": bbs(CONSERVATIVE_PRESET),
        "BBS moderate": bbs(MODERATE_PRESET),
    }


# --------------------------------------------------------------------------- #
# Figure 1 / Figure 3 / Figure 6: motivation and sparsity statistics
# --------------------------------------------------------------------------- #


def figure1_motivation(seed: int = 0) -> dict:
    """Figure 1: compression quality of PTQ vs zero-column pruning vs BBS.

    Uses a ResNet-50 convolution layer's synthetic INT8 weights, compresses to
    an effective ~5-bit width with the three approaches of the figure, and
    reports MSE and KL divergence against the 8-bit weights.
    """
    model = get_model("ResNet-50")
    weights = synthesize_model(model, seed=seed, max_channels=128, max_reduction=1024)
    layer = weights["layer3.conv1"]
    original = layer.int_weights

    ptq5 = requantize_to_lower_bits(layer.quantized, 5).values
    zero_column = bitflip_tensor(original, 3, group_size=4, keep_original=False).values
    bbs = prune_tensor(
        original, 3, PruningStrategy.ZERO_POINT_SHIFT, group_size=4, keep_original=False
    ).values

    rows = []
    for name, compressed in [
        ("PTQ INT5", ptq5),
        ("Sign-magnitude zero columns (3 pruned)", zero_column),
        ("BBS bi-directional columns (3 pruned)", bbs),
    ]:
        rows.append(
            {
                "method": name,
                "mse": mse(original, compressed),
                "kl_divergence": kl_divergence(original, compressed),
                "quantization_levels": int(len(np.unique(compressed))),
            }
        )
    return {"rows": rows, "layer": layer.name, "table": format_table(rows, title="Figure 1")}


def figure3_sparsity_comparison(
    models: list[str] | None = None, seed: int = 0, vector_size: int = 8
) -> dict:
    """Figure 3: value / bit (2's comp) / bit (sign-mag) / BBS sparsity per model."""
    models = models or ["VGG-16", "ResNet-34", "ResNet-50", "ViT-Small", "ViT-Base", "BERT-MRPC"]
    rows = []
    for name in models:
        weights = synthesize_model(
            get_model(name), seed=seed, max_channels=128, max_reduction=1024
        )
        reports = []
        sizes = []
        for layer in weights.values():
            reports.append(sparsity_report(layer.int_weights, vector_size=vector_size))
            sizes.append(layer.int_weights.size * layer.repeat)
        sizes = np.asarray(sizes, dtype=np.float64)
        sizes /= sizes.sum()
        rows.append(
            {
                "model": name,
                "value": float(np.dot(sizes, [r.value for r in reports])),
                "bit_twos_complement": float(
                    np.dot(sizes, [r.bit_twos_complement for r in reports])
                ),
                "bit_sign_magnitude": float(
                    np.dot(sizes, [r.bit_sign_magnitude for r in reports])
                ),
                "bbs": float(np.dot(sizes, [r.bbs for r in reports])),
            }
        )
    return {"rows": rows, "table": format_table(rows, title="Figure 3")}


def figure6_kl_divergence(seed: int = 0, group_size: int = 32) -> dict:
    """Figure 6: normalized KL of zero-column vs rounded-avg vs zero-point pruning."""
    rows = []
    for model_name in ["ResNet-34", "ViT-Base"]:
        weights = synthesize_model(
            get_model(model_name), seed=seed, max_channels=128, max_reduction=1024
        )
        for columns in (2, 4):
            kls: dict[str, list[float]] = {
                "zero_column": [],
                "rounded_average": [],
                "zero_point_shift": [],
            }
            for layer in weights.values():
                original = layer.int_weights
                kls["zero_column"].append(
                    kl_divergence(
                        original,
                        bitflip_tensor(
                            original, columns, group_size=group_size, keep_original=False
                        ).values,
                    )
                )
                kls["rounded_average"].append(
                    kl_divergence(
                        original,
                        prune_tensor(
                            original,
                            columns,
                            PruningStrategy.ROUNDED_AVERAGE,
                            group_size=group_size,
                            keep_original=False,
                        ).values,
                    )
                )
                kls["zero_point_shift"].append(
                    kl_divergence(
                        original,
                        prune_tensor(
                            original,
                            columns,
                            PruningStrategy.ZERO_POINT_SHIFT,
                            group_size=group_size,
                            keep_original=False,
                        ).values,
                    )
                )
            means = {name: float(np.mean(values)) for name, values in kls.items()}
            normalized = normalized_kl(means)
            rows.append(
                {
                    "model": model_name,
                    "pruned_columns": columns,
                    "zero_column_norm_kl": normalized["zero_column"],
                    "rounded_average_norm_kl": normalized["rounded_average"],
                    "zero_point_shift_norm_kl": normalized["zero_point_shift"],
                }
            )
    return {"rows": rows, "table": format_table(rows, title="Figure 6")}


# --------------------------------------------------------------------------- #
# Figure 11 and Tables I-III: accuracy comparisons
# --------------------------------------------------------------------------- #


def table1_models() -> dict:
    """Table I: the evaluated models and their published FP32/INT8 accuracies."""
    rows = []
    for name in BENCHMARK_MODEL_NAMES:
        model = get_model(name)
        rows.append(
            {
                "model": model.name,
                "type": model.family,
                "dataset": model.dataset,
                "fp32_accuracy": model.fp32_accuracy,
                "int8_accuracy": model.int8_accuracy,
                "weights_millions": model.total_weights / 1e6,
                "gmacs": model.total_macs / 1e9,
            }
        )
    return {"rows": rows, "table": format_table(rows, title="Table I")}


def figure11_accuracy(
    models: list[str] | None = None, seed: int = 0, include_mlp: bool = True
) -> dict:
    """Figure 11: accuracy impact of PTQ vs BitWave vs BBS (cons / mod).

    Reports, per benchmark model, the weight-distribution KL divergence of each
    method (the paper's own explanatory proxy) plus the effective bit width,
    and — once, since it is model-independent — the measured accuracy drop of
    each method on the end-to-end MLP task.
    """
    models = models or ["ResNet-34", "ResNet-50", "ViT-Small", "ViT-Base"]
    methods = ["ptq6", "ptq4", "bitwave2", "bitwave4", "bbs_cons", "bbs_mod"]
    rows = []
    for model_name in models:
        weights = synthesize_model(
            get_model(model_name), seed=seed, max_channels=96, max_reduction=768
        )
        for method in methods:
            outcome = _compress_model(weights, method)
            rows.append(
                {
                    "model": model_name,
                    "method": method,
                    "effective_bits": outcome.effective_bits,
                    "compression_ratio": outcome.compression_ratio,
                    "mean_kl": outcome.mean_kl,
                    "mean_mse": outcome.mean_mse,
                }
            )

    mlp_rows = []
    if include_mlp:
        dataset = make_classification_dataset(
            num_samples=6000, num_features=64, num_classes=16, seed=seed
        )
        mlp = MLPClassifier(dataset.num_features, dataset.num_classes, (192, 128), seed=seed)
        mlp.train(dataset, epochs=25, seed=seed)
        baseline = mlp.evaluate(dataset.test_x, dataset.test_y)
        for name, compressor in _mlp_compressors().items():
            accuracy = accuracy_under_compression(mlp, dataset, compressor)
            mlp_rows.append(
                {
                    "method": name,
                    "test_accuracy": accuracy,
                    "accuracy_loss_vs_fp32": baseline - accuracy,
                }
            )
    return {
        "rows": rows,
        "mlp_rows": mlp_rows,
        "table": format_table(rows, title="Figure 11 (weight-distribution proxy)")
        + ("\n" + format_table(mlp_rows, title="Figure 11 (end-to-end MLP)") if mlp_rows else ""),
    }


def table2_ant_comparison(seed: int = 0) -> dict:
    """Table II: BBS moderate pruning vs ANT 6-bit on VGG-16 and ResNet-50."""
    rows = []
    for model_name in ["VGG-16", "ResNet-50"]:
        weights = synthesize_model(
            get_model(model_name), seed=seed, max_channels=96, max_reduction=768
        )
        bbs = _compress_model(weights, "bbs_mod")
        ant = _compress_model(weights, "ant6")
        rows.append(
            {
                "model": model_name,
                "bbs_mod_bits": bbs.effective_bits,
                "bbs_mod_kl": bbs.mean_kl,
                "ant6_bits": ant.effective_bits,
                "ant6_kl": ant.mean_kl,
                "bbs_better": bbs.mean_kl < ant.mean_kl,
            }
        )
    return {"rows": rows, "table": format_table(rows, title="Table II")}


def table3_ptq_comparison(seed: int = 0) -> dict:
    """Table III: BBS vs Microscaling and NoisyQuant on ViT-Small / ViT-Base."""
    rows = []
    for model_name in ["ViT-Small", "ViT-Base"]:
        weights = synthesize_model(
            get_model(model_name), seed=seed, max_channels=96, max_reduction=768
        )
        outcomes = {
            "Microscaling (6-bit)": _compress_model(weights, "microscaling6"),
            "NoisyQuant (6-bit)": _compress_model(weights, "noisyquant6"),
            "BBS (cons)": _compress_model(weights, "bbs_cons"),
            "BBS (mod)": _compress_model(weights, "bbs_mod"),
        }
        for method, outcome in outcomes.items():
            rows.append(
                {
                    "model": model_name,
                    "method": method,
                    "effective_bits": outcome.effective_bits,
                    "mean_kl": outcome.mean_kl,
                    "mean_mse": outcome.mean_mse,
                }
            )
    return {"rows": rows, "table": format_table(rows, title="Table III")}


# --------------------------------------------------------------------------- #
# Figures 12-15: accelerator performance, energy and load balance
# --------------------------------------------------------------------------- #


def _run_suite(
    suite: BenchmarkSuite, models: list[str], accelerators: list[str] | None = None
) -> dict[str, dict[str, ModelPerformance]]:
    """Run the accelerator line-up over the requested models.

    Delegates to :meth:`BenchmarkSuite.performances`, which fans the
    ``(model, accelerator)`` simulations out over a process pool when the
    suite was built with ``jobs > 1``.
    """
    return suite.performances(models, accelerators)


def figure12_speedup(
    models: list[str] | None = None, suite: BenchmarkSuite | None = None
) -> dict:
    """Figure 12: speedup of every accelerator over Stripes, per model + geomean."""
    models = models or BENCHMARK_MODEL_NAMES
    suite = suite or BenchmarkSuite()
    results = _run_suite(suite, models)

    rows = []
    speedups_by_accel: dict[str, list[float]] = {name: [] for name in ACCELERATOR_NAMES}
    for model_name in models:
        baseline = results[model_name]["Stripes"]
        row: dict[str, object] = {"model": model_name}
        for accel_name in ACCELERATOR_NAMES:
            speedup = results[model_name][accel_name].speedup_over(baseline)
            row[accel_name] = speedup
            speedups_by_accel[accel_name].append(speedup)
        rows.append(row)
    geomean_row: dict[str, object] = {"model": "Geomean"}
    for accel_name in ACCELERATOR_NAMES:
        geomean_row[accel_name] = geometric_mean(speedups_by_accel[accel_name])
    rows.append(geomean_row)
    return {"rows": rows, "results": results, "table": format_table(rows, title="Figure 12")}


def figure13_energy(
    models: list[str] | None = None,
    suite: BenchmarkSuite | None = None,
    results: dict[str, dict[str, ModelPerformance]] | None = None,
) -> dict:
    """Figure 13: energy (off-chip + on-chip) normalized to SparTen, per model."""
    models = models or BENCHMARK_MODEL_NAMES
    suite = suite or BenchmarkSuite()
    results = results or _run_suite(suite, models)

    rows = []
    totals: dict[str, list[float]] = {name: [] for name in ACCELERATOR_NAMES}
    for model_name in models:
        baseline_energy = results[model_name]["SparTen"].total_energy_pj
        for accel_name in ACCELERATOR_NAMES:
            perf = results[model_name][accel_name]
            normalized = perf.total_energy_pj / baseline_energy
            totals[accel_name].append(normalized)
            rows.append(
                {
                    "model": model_name,
                    "accelerator": accel_name,
                    "norm_energy": normalized,
                    "norm_off_chip": perf.off_chip_energy_pj / baseline_energy,
                    "norm_on_chip": perf.on_chip_energy_pj / baseline_energy,
                }
            )
    geomean_rows = [
        {
            "model": "Geomean",
            "accelerator": accel_name,
            "norm_energy": geometric_mean(values),
            "norm_off_chip": float("nan"),
            "norm_on_chip": float("nan"),
        }
        for accel_name, values in totals.items()
    ]
    rows.extend(geomean_rows)
    return {"rows": rows, "results": results, "table": format_table(rows, title="Figure 13")}


def _load_balance_accelerators(array: ArrayConfig) -> dict[str, object]:
    return {
        "Stripes": StripesAccelerator(array=array),
        "Pragmatic": PragmaticAccelerator(array=array),
        "Bitlet": BitletAccelerator(array=array),
        "BitWave": BitWaveAccelerator(array=array),
        "BitVert": BitVertAccelerator(preset=MODERATE_PRESET, array=array),
    }


def figure14_load_balance(
    models: list[str] | None = None,
    column_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
    suite: BenchmarkSuite | None = None,
) -> dict:
    """Figure 14: speedup over Stripes as the number of PE columns grows."""
    models = models or ["ResNet-50", "BERT-MRPC"]
    suite = suite or BenchmarkSuite()
    rows = []
    for model_name in models:
        model = suite.model(model_name)
        weights = suite.weights(model_name)
        for columns in column_counts:
            array = suite.array.with_columns(columns)
            accelerators = _load_balance_accelerators(array)
            baseline = accelerators["Stripes"].run_model(model, weights)
            row: dict[str, object] = {"model": model_name, "pe_columns": columns}
            for name, accelerator in accelerators.items():
                if name == "Stripes":
                    continue
                row[name] = accelerator.run_model(model, weights).speedup_over(baseline)
            rows.append(row)
    return {"rows": rows, "table": format_table(rows, title="Figure 14")}


def figure15_stall_breakdown(
    models: list[str] | None = None,
    column_counts: tuple[int, ...] = (8, 32),
    suite: BenchmarkSuite | None = None,
) -> dict:
    """Figure 15: useful / intra-PE-stall / inter-PE-stall cycle breakdown."""
    models = models or ["ResNet-50", "BERT-MRPC"]
    suite = suite or BenchmarkSuite()
    rows = []
    for model_name in models:
        model = suite.model(model_name)
        weights = suite.weights(model_name)
        for columns in column_counts:
            array = suite.array.with_columns(columns)
            for name, accelerator in _load_balance_accelerators(array).items():
                if name == "Stripes":
                    continue
                breakdown = accelerator.run_model(model, weights).cycle_breakdown()
                rows.append(
                    {
                        "model": model_name,
                        "pe_columns": columns,
                        "accelerator": name,
                        **breakdown,
                    }
                )
    return {"rows": rows, "table": format_table(rows, title="Figure 15")}


# --------------------------------------------------------------------------- #
# Tables IV-VI and Figures 16-17: PE design space, Pareto, LLM study
# --------------------------------------------------------------------------- #


def table4_pe_design_space() -> dict:
    """Table IV: BitVert PE area/power vs sub-group size, with/without optimizations."""
    rows = []
    for sub_group in (16, 8, 4):
        for optimized in (False, True):
            design = bitvert_pe(sub_group=sub_group, optimized=optimized)
            reference = PAPER_TABLE_IV[(sub_group, optimized)]
            rows.append(
                {
                    "sub_group": sub_group,
                    "optimized": optimized,
                    "model_area_um2": design.area_um2,
                    "model_power_mw": design.power_mw,
                    "paper_area_um2": reference["area_um2"],
                    "paper_power_mw": reference["power_mw"],
                }
            )
    return {"rows": rows, "table": format_table(rows, title="Table IV")}


def table5_pe_comparison() -> dict:
    """Table V: PE area/power of the bit-serial accelerators (model vs paper)."""
    rows = []
    stripes_area = PE_BUILDERS["Stripes"]().area_um2
    for name in ["Stripes", "Pragmatic", "Bitlet", "BitWave", "BitVert"]:
        design = PE_BUILDERS[name]()
        reference = PAPER_TABLE_V[name]
        rows.append(
            {
                "accelerator": name,
                "model_area_um2": design.area_um2,
                "model_area_ratio": design.area_um2 / stripes_area,
                "model_power_mw": design.power_mw,
                "paper_area_um2": reference["total_um2"],
                "paper_area_ratio": reference["total_um2"] / PAPER_TABLE_V["Stripes"]["total_um2"],
                "paper_power_mw": reference["power_mw"],
            }
        )
    return {"rows": rows, "table": format_table(rows, title="Table V")}


def figure16_pareto(seed: int = 0, suite: BenchmarkSuite | None = None) -> dict:
    """Figure 16: EDP vs accuracy-loss trade-off on ResNet-50.

    The accuracy axis uses the weight-distribution KL divergence (the offline
    stand-in for ImageNet accuracy loss; see DESIGN.md), normalized per run so
    points can be compared on one plot.  EDP is normalized to the worst design
    point, as in the paper.
    """
    suite = suite or BenchmarkSuite(seed=seed)
    model = suite.model("ResNet-50")
    weights = suite.weights("ResNet-50")

    points = []

    # Baseline accelerators (single configurations).
    stripes = StripesAccelerator(array=suite.array).run_model(model, weights)
    del stripes  # Stripes is not on the paper's Pareto plot; kept for clarity.
    bitlet_perf = BitletAccelerator(array=suite.array).run_model(model, weights)
    points.append({"design": "Bitlet", "kl_proxy": 0.0, "edp": bitlet_perf.energy_delay_product})

    ptq = _compress_model(weights, "ptq4")
    from ..accelerators import AntAccelerator

    ant_perf = AntAccelerator(array=suite.array).run_model(model, weights)
    ant_outcome = _compress_model(weights, "ant6")
    points.append(
        {"design": "ANT (6-bit)", "kl_proxy": ant_outcome.mean_kl, "edp": ant_perf.energy_delay_product}
    )
    stripes_perf = StripesAccelerator(array=suite.array).run_model(model, weights)
    points.append({"design": "PTQ (4-bit)", "kl_proxy": ptq.mean_kl, "edp": stripes_perf.energy_delay_product})

    bitwave_accel = BitWaveAccelerator(array=suite.array, pruned_columns=3)
    bitwave_perf = bitwave_accel.run_model(model, weights)
    bitwave_outcome = _compress_model(weights, "bitwave")
    points.append(
        {"design": "BitWave", "kl_proxy": bitwave_outcome.mean_kl, "edp": bitwave_perf.energy_delay_product}
    )

    # BitVert pruning-ratio sweep.
    sweep = [
        ("BitVert (beta 10%, 2 cols)", CONSERVATIVE_PRESET),
        (
            "BitVert (beta 20%, 3 cols)",
            PruningPreset("custom3", 0.20, 3, PruningStrategy.ZERO_POINT_SHIFT),
        ),
        ("BitVert (beta 20%, 4 cols)", MODERATE_PRESET),
        (
            "BitVert (beta 10%, 5 cols)",
            PruningPreset("custom5", 0.10, 5, PruningStrategy.ZERO_POINT_SHIFT),
        ),
    ]
    for label, preset in sweep:
        accel = BitVertAccelerator(preset=preset, array=suite.array)
        perf = accel.run_model(model, weights)
        layer_ints = {name: lw.int_weights for name, lw in weights.items()}
        scores = {name: lw.channel_scores for name, lw in weights.items()}
        pruned = global_binary_prune(layer_ints, scores, preset=preset)
        points.append(
            {"design": label, "kl_proxy": pruned.mean_kl_divergence(), "edp": perf.energy_delay_product}
        )

    max_edp = max(point["edp"] for point in points)
    for point in points:
        point["norm_edp"] = point["edp"] / max_edp
    return {"rows": points, "table": format_table(points, title="Figure 16")}


def figure17_llm(seed: int = 0, sample_layers: int | None = None) -> dict:
    """Figure 17: BBS vs Olive on Llama-3-8B weight compression.

    Without the Wikitext/C4 pipelines the reported metric is the *output
    distortion*: the relative error of each layer's GEMM output on synthetic
    activations, weighted by layer size — a measured (not fabricated) stand-in
    whose ordering tracks perplexity degradation.  Effective bit widths follow
    the paper exactly (6.25 / 4.25 for BBS cons/mod, 4 for Olive).
    """
    model = llama3_8b()
    weights = synthesize_model(model, seed=seed, max_channels=128, max_reduction=1024)
    rng = np.random.default_rng(seed)

    def output_distortion(compress) -> float:
        errors = []
        sizes = []
        for layer in weights.values():
            original = layer.int_weights
            compressed = compress(layer)
            activations = rng.integers(-64, 64, size=original.shape[1])
            reference = original @ activations
            approximate = compressed @ activations
            denom = np.linalg.norm(reference) or 1.0
            errors.append(float(np.linalg.norm(approximate - reference) / denom))
            sizes.append(layer.full_weight_count)
        sizes = np.asarray(sizes, dtype=np.float64)
        sizes /= sizes.sum()
        return float(np.dot(sizes, errors))

    def bbs(columns: int, strategy: PruningStrategy):
        def compress(layer: LayerWeights) -> np.ndarray:
            return prune_tensor(
                layer.int_weights, columns, strategy, group_size=32, keep_original=False
            ).values

        return compress

    rows = [
        {
            "method": "BBS conservative (6.25 bits)",
            "effective_bits": 6.25,
            "output_distortion": output_distortion(bbs(2, PruningStrategy.ROUNDED_AVERAGE)),
        },
        {
            "method": "BBS moderate (4.25 bits)",
            "effective_bits": 4.25,
            "output_distortion": output_distortion(bbs(4, PruningStrategy.ZERO_POINT_SHIFT)),
        },
        {
            "method": "Olive (4 bits)",
            "effective_bits": 4.0,
            "output_distortion": output_distortion(
                lambda layer: olive_quantize(layer.int_weights, 4, keep_original=False).values
            ),
        },
    ]
    del sample_layers
    return {"rows": rows, "table": format_table(rows, title="Figure 17")}


def table6_olive_pe() -> dict:
    """Table VI: Olive PE vs BitVert PE — area, power, throughput, perf/area.

    Under moderate pruning the BitVert PE finishes 16 multiplications in 4
    cycles (4 MACs/cycle); the Olive PE computes one multiplication per cycle.
    """
    bitvert = bitvert_pe(sub_group=8, optimized=True)
    olive = olive_pe()
    bitvert_throughput = 16.0 / 4.0
    olive_throughput = 1.0
    rows = [
        {
            "pe": "Olive",
            "model_area_um2": olive.area_um2,
            "model_power_mw": olive.power_mw,
            "norm_perf": 1.0,
            "norm_perf_per_area": 1.0,
            "paper_area_um2": PAPER_TABLE_VI["Olive"]["area_um2"],
        },
        {
            "pe": "BitVert (moderate)",
            "model_area_um2": bitvert.area_um2,
            "model_power_mw": bitvert.power_mw,
            "norm_perf": bitvert_throughput / olive_throughput,
            "norm_perf_per_area": (bitvert_throughput / bitvert.area_um2)
            / (olive_throughput / olive.area_um2),
            "paper_area_um2": PAPER_TABLE_VI["BitVert"]["area_um2"],
        },
    ]
    return {"rows": rows, "table": format_table(rows, title="Table VI")}


# --------------------------------------------------------------------------- #
# The experiment table and its driver
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Experiment:
    """One artefact of the paper's evaluation, as :data:`EXPERIMENTS` lists it.

    Which caller parameters apply is read off the function's signature:
    ``models`` when it takes ``models``, a benchmark suite (hence a seed and
    a process-pool width) when it takes ``suite``, and a seed when it takes
    ``seed``.
    """

    function: Callable[..., dict]
    #: Cold run time (s) of the ``run_all(fast=True)`` call in a fresh
    #: process on 2 vCPUs; ``run_all(jobs > 1)`` submits the costliest first.
    cost_s: float
    #: Model subset ``run_all(fast=True)`` passes; ``None`` keeps the default.
    fast_models: tuple[str, ...] | None = None
    #: Takes the ``results`` of the experiment listed just before it rather
    #: than recomputing them, so ``run_all`` runs the two as one task.
    reuses_previous: bool = False

    @property
    def parameters(self) -> Mapping[str, inspect.Parameter]:
        return inspect.signature(self.function).parameters

    @property
    def summary(self) -> str:
        return self.function.__doc__.strip().splitlines()[0]

    @property
    def params(self) -> dict[str, object]:
        """Caller-settable parameters and their defaults.

        The seed of a ``suite``-taking experiment seeds its benchmark suite.
        """
        params: dict[str, object] = {}
        if "models" in self.parameters:
            params["models"] = None
        if "seed" in self.parameters or "suite" in self.parameters:
            params["seed"] = 0
        return params


_FAST_SWEEP_MODELS = ("ResNet-50", "ViT-Small", "BERT-MRPC")

#: Every table and figure of the evaluation, in ``repro all`` order.  The CLI
#: commands, the service job types and :func:`run_all` all read this table.
EXPERIMENTS: dict[str, Experiment] = {
    "figure1": Experiment(figure1_motivation, 0.5),
    "figure3": Experiment(figure3_sparsity_comparison, 1.3),
    "figure6": Experiment(figure6_kl_divergence, 1.9),
    "table1": Experiment(table1_models, 0.0),
    "figure11": Experiment(figure11_accuracy, 2.8, ("ResNet-34", "ViT-Base")),
    "table2": Experiment(table2_ant_comparison, 1.0),
    "table3": Experiment(table3_ptq_comparison, 0.4),
    "figure12": Experiment(figure12_speedup, 1.8, _FAST_SWEEP_MODELS),
    "figure13": Experiment(figure13_energy, 0.0, _FAST_SWEEP_MODELS, reuses_previous=True),
    "figure14": Experiment(figure14_load_balance, 3.5),
    "figure15": Experiment(figure15_stall_breakdown, 1.6),
    "table4": Experiment(table4_pe_design_space, 0.0),
    "table5": Experiment(table5_pe_comparison, 0.0),
    "figure16": Experiment(figure16_pareto, 2.4),
    "figure17": Experiment(figure17_llm, 0.7),
    "table6": Experiment(table6_olive_pe, 0.0),
}


def run_experiment(
    name: str,
    models: list[str] | None = None,
    seed: int = 0,
    jobs: int = 1,
    results: dict | None = None,
) -> dict:
    """Run one named experiment with only the kwargs its function accepts.

    The single entry point of the CLI commands, the service job types and
    :func:`run_all`, so all three produce byte-identical results for
    identical inputs.  ``jobs`` sets the process-pool width of a
    ``suite``-taking experiment's accelerator sweeps; it never changes
    results.  ``results`` hands a ``reuses_previous`` experiment the results
    of the one before it.
    """
    experiment = EXPERIMENTS[name]
    kwargs: dict = {}
    if models:
        kwargs["models"] = list(models)
    if "seed" in experiment.parameters:
        kwargs["seed"] = seed
    if "suite" in experiment.parameters:
        kwargs["suite"] = BenchmarkSuite(seed=seed, jobs=jobs)
    if results is not None:
        kwargs["results"] = results
    return experiment.function(**kwargs)


def _tasks() -> list[tuple[str, ...]]:
    """:data:`EXPERIMENTS` as independent tasks: a ``reuses_previous``
    experiment joins the task of the one before it."""
    tasks: list[tuple[str, ...]] = []
    for name, experiment in EXPERIMENTS.items():
        if experiment.reuses_previous:
            tasks[-1] += (name,)
        else:
            tasks.append((name,))
    return tasks


def _costliest_first(tasks: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Pool submission order: the schedule then ends on short tasks instead
    of one long straggler."""
    return sorted(
        tasks, key=lambda task: sum(EXPERIMENTS[name].cost_s for name in task), reverse=True
    )


def _run_task(task: tuple[str, ...], fast: bool, seed: int) -> dict[str, dict]:
    """Run one task of :func:`run_all` and return its JSON payloads by name.

    Takes picklable scalars and returns strict JSON, so it runs the same
    in-process or on a pool worker.
    """
    payloads: dict[str, dict] = {}
    results = None
    for name in task:
        experiment = EXPERIMENTS[name]
        models = experiment.fast_models if fast else None
        result = run_experiment(name, models=models, seed=seed, results=results)
        results = result.get("results")
        payloads[name] = json_payload(result)
    return payloads


def run_all(fast: bool = True, seed: int = 0, jobs: int = 1) -> dict[str, dict]:
    """Run every experiment; returns their JSON payloads in table order.

    ``fast`` restricts the sweeps to each experiment's ``fast_models`` so the
    whole reproduction completes in seconds; without it the sweeps cover
    every model.  ``jobs > 1`` runs the tasks on a process pool of that
    width.  The payloads are the same dicts the service caches and ships,
    and they are identical at every ``jobs``: every experiment is
    deterministic in ``(fast, seed)``.
    """
    tasks = _tasks()
    if jobs <= 1:
        payloads = [_run_task(task, fast, seed) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                task: pool.submit(_run_task, task, fast, seed)
                for task in _costliest_first(tasks)
            }
            payloads = [futures[task].result() for task in tasks]
    return {name: payload for chunk in payloads for name, payload in chunk.items()}
