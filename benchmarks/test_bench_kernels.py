"""Micro-benchmarks of the core BBS kernels.

These are not tied to a specific paper figure; they measure the throughput of
the compression algorithms themselves (the paper quotes ~15 s to compress all
of ResNet-50 on a GPU — the vectorized numpy implementation here compresses
the sampled layers in seconds on a CPU) and guard against performance
regressions in the hot loops used by every experiment.

The kernel benchmarks run with the artifact memo suspended so they always
measure the cold computation; the suite-level benchmarks at the bottom
measure the cold-vs-memoized contrast explicitly.  CI exports this module's
timings as ``BENCH_kernels.json`` (pytest-benchmark ``--benchmark-json``) and
uploads them as a workflow artifact, giving future PRs a perf trajectory; the
committed ``BENCH_kernels.json`` is the baseline recorded for this PR.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    MODERATE_PRESET,
    PruningStrategy,
    bbs_sparsity,
    clear_memo,
    global_binary_prune,
    memo_disabled,
    prune_tensor,
    sparsity_report,
)
from repro.core.bitplane import column_ones, to_bitplanes
from repro.core.rounded_average import rounded_average_groups
from repro.core.zero_point_shift import (
    zero_point_shift_groups,
    zero_point_shift_groups_reference,
)
from repro.eval.experiments import figure6_kl_divergence
from repro.nn.model_zoo import get_model
from repro.nn.synthetic import synthesize_model
from repro.quant.ant_datatype import ant_quantize, ant_quantize_reference
from repro.quant.bitflip import _bitflip_batch, _bitflip_batch_reference, bitflip_tensor
from repro.quant.ptq import optimal_clip_scale, optimal_clip_scale_reference


@pytest.fixture(scope="module")
def weight_matrix() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.clip(np.round(rng.normal(0, 24, (256, 1024))), -128, 127).astype(np.int64)


@pytest.fixture(scope="module")
def weight_groups(weight_matrix) -> np.ndarray:
    return weight_matrix.reshape(-1, 32)


def test_bench_sparsity_report(benchmark, weight_matrix):
    report = benchmark(sparsity_report, weight_matrix)
    assert report.bbs >= 0.5


def test_bench_bbs_sparsity(benchmark, weight_matrix):
    value = benchmark(bbs_sparsity, weight_matrix)
    assert value >= 0.5


def test_bench_rounded_average(benchmark, weight_groups):
    values, _, _, _ = benchmark(rounded_average_groups, weight_groups, 2)
    assert values.shape == weight_groups.shape


def test_bench_zero_point_shift(benchmark, weight_groups):
    values, _, _, _ = benchmark(zero_point_shift_groups, weight_groups, 4)
    assert values.shape == weight_groups.shape


def test_bench_zero_point_shift_reference(benchmark, weight_groups):
    """The original per-candidate search, kept on the record for trajectory."""
    values, _, _, _ = benchmark.pedantic(
        zero_point_shift_groups_reference, args=(weight_groups, 4), rounds=2, iterations=1
    )
    assert values.shape == weight_groups.shape


def interleaved_speedup(reference, fast, rounds: int = 3) -> float:
    """Ratio of the fastest reference run to the fastest fast run.

    Timings are interleaved (reference, fast, reference, fast, ...) so that a
    load spike on a shared machine hits both sides alike.
    """
    reference_times, fast_times = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        reference()
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast()
        fast_times.append(time.perf_counter() - start)
    return min(reference_times) / min(fast_times)


def test_zero_point_shift_speedup_over_reference(weight_groups):
    """Regression guard for the table-driven search (~30x on this fixture).

    Measured 31x on one core of a shared x86-64 VM (single-threaded
    OpenBLAS): 1.55 s reference, 43-49 ms table kernel.  The interleaved
    minima are compared.  The assertion is a parity guard only — far below
    the ~30x observed — because a wall-clock ratio can never be made fully
    deterministic on shared runners; the real trajectory lives in
    ``BENCH_kernels.json``.
    """
    speedup = interleaved_speedup(
        lambda: zero_point_shift_groups_reference(weight_groups, 4),
        lambda: zero_point_shift_groups(weight_groups, 4),
    )
    print(f"\nzero_point_shift_groups speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(
        zero_point_shift_groups(weight_groups, 4),
        zero_point_shift_groups_reference(weight_groups, 4),
        strict=True,
    ):
        assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def int8_layer() -> np.ndarray:
    """A 128x768 per-channel INT8 layer, as the paper's requantization sees it."""
    rng = np.random.default_rng(1)
    weights = rng.normal(0, 1, (128, 768))
    scales = np.abs(weights).max(axis=1, keepdims=True) / 127
    return np.round(weights / scales)


@pytest.fixture(scope="module")
def float_layer() -> np.ndarray:
    return np.random.default_rng(2).normal(0, 0.05, (64, 512))


@pytest.fixture(scope="module")
def bitflip_groups() -> np.ndarray:
    rng = np.random.default_rng(3)
    return np.clip(np.round(rng.normal(0, 24, (40_000, 32))), -128, 127).astype(np.int64)


def clip_search_reference(rows: np.ndarray, bits: int) -> np.ndarray:
    return np.array([optimal_clip_scale_reference(row, bits) for row in rows])


@pytest.mark.parametrize("layer", ["int8_layer", "float_layer"])
def test_bench_clip_search(benchmark, request, layer):
    rows = request.getfixturevalue(layer)
    scales = benchmark(optimal_clip_scale, rows, 4)
    assert scales.shape == (rows.shape[0],)


@pytest.mark.parametrize("layer", ["int8_layer", "float_layer"])
def test_bench_clip_search_reference(benchmark, request, layer):
    """The original one-channel candidate loop, kept on the record for trajectory."""
    rows = request.getfixturevalue(layer)
    scales = benchmark.pedantic(clip_search_reference, args=(rows, 4), rounds=2, iterations=1)
    assert scales.shape == (rows.shape[0],)


@pytest.mark.parametrize("layer", ["int8_layer", "float_layer"])
def test_clip_search_speedup_over_reference(request, layer):
    """Parity guard for the batched clip search (measured ~80x on the INT8
    layer through the level histograms, ~6x on the float layer)."""
    rows = request.getfixturevalue(layer)
    speedup = interleaved_speedup(
        lambda: clip_search_reference(rows, 4), lambda: optimal_clip_scale(rows, 4)
    )
    print(f"\noptimal_clip_scale speedup over reference ({layer}): {speedup:.1f}x")
    assert speedup >= 1.5
    assert np.array_equal(optimal_clip_scale(rows, 4), clip_search_reference(rows, 4))


def test_bench_bitflip_batch(benchmark, bitflip_groups):
    values, _, _ = benchmark(_bitflip_batch, bitflip_groups, 3, 8)
    assert values.shape == bitflip_groups.shape


def test_bench_bitflip_batch_reference(benchmark, bitflip_groups):
    """The original bit-plane kernel, kept on the record for trajectory."""
    values, _, _ = benchmark.pedantic(
        _bitflip_batch_reference, args=(bitflip_groups, 3, 8), rounds=2, iterations=1
    )
    assert values.shape == bitflip_groups.shape


def test_bitflip_batch_speedup_over_reference(bitflip_groups):
    """Parity guard for the arithmetic bit-flip (measured ~10x)."""
    speedup = interleaved_speedup(
        lambda: _bitflip_batch_reference(bitflip_groups, 3, 8),
        lambda: _bitflip_batch(bitflip_groups, 3, 8),
    )
    print(f"\n_bitflip_batch speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(
        _bitflip_batch(bitflip_groups, 3, 8),
        _bitflip_batch_reference(bitflip_groups, 3, 8),
        strict=True,
    ):
        assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def column_vectors() -> np.ndarray:
    """80k INT8 vectors of 16 weights: one BitVert PE group each."""
    rng = np.random.default_rng(4)
    return np.clip(np.round(rng.normal(0, 24, (80_000, 16))), -128, 127).astype(np.int64)


def column_ones_reference(values: np.ndarray, bits: int) -> np.ndarray:
    return to_bitplanes(values, bits).sum(axis=-2)


def test_bench_column_ones(benchmark, column_vectors):
    ones = benchmark(column_ones, column_vectors, 8)
    assert ones.shape == (column_vectors.shape[0], 8)


def test_bench_column_ones_reference(benchmark, column_vectors):
    """The bit-plane sum the accelerator models used before, kept for trajectory."""
    ones = benchmark.pedantic(
        column_ones_reference, args=(column_vectors, 8), rounds=2, iterations=1
    )
    assert ones.shape == (column_vectors.shape[0], 8)


def test_column_ones_speedup_over_reference(column_vectors):
    """Parity guard for the popcount column counts (measured ~20x)."""
    speedup = interleaved_speedup(
        lambda: column_ones_reference(column_vectors, 8),
        lambda: column_ones(column_vectors, 8),
    )
    print(f"\ncolumn_ones speedup over the plane sum: {speedup:.1f}x")
    assert speedup >= 1.5
    assert np.array_equal(column_ones(column_vectors, 8), column_ones_reference(column_vectors, 8))


@pytest.fixture(scope="module")
def resnet50_layers() -> list[np.ndarray]:
    """The 30 sampled ResNet-50 layers figure 16 and Table II quantize with ANT."""
    with memo_disabled():
        model = synthesize_model(
            get_model("ResNet-50"), seed=0, max_channels=96, max_reduction=768
        )
    return [layer.int_weights for layer in model.values()]


def ant_quantize_layers(quantize, layers: list[np.ndarray]) -> list[np.ndarray]:
    return [quantize(layer, 6).values for layer in layers]


def test_bench_ant_quantize(benchmark, resnet50_layers):
    values = benchmark(ant_quantize_layers, ant_quantize, resnet50_layers)
    assert len(values) == len(resnet50_layers)


def test_bench_ant_quantize_reference(benchmark, resnet50_layers):
    """The original per-channel loop, kept on the record for trajectory."""
    values = benchmark.pedantic(
        ant_quantize_layers,
        args=(ant_quantize_reference, resnet50_layers),
        rounds=2,
        iterations=1,
    )
    assert len(values) == len(resnet50_layers)


def test_ant_quantize_speedup_over_reference(resnet50_layers):
    """Parity guard for the batched ANT quantizer (measured ~5x)."""
    speedup = interleaved_speedup(
        lambda: ant_quantize_layers(ant_quantize_reference, resnet50_layers),
        lambda: ant_quantize_layers(ant_quantize, resnet50_layers),
    )
    print(f"\nant_quantize speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(
        ant_quantize_layers(ant_quantize, resnet50_layers),
        ant_quantize_layers(ant_quantize_reference, resnet50_layers),
        strict=True,
    ):
        assert np.array_equal(new, old)


def test_bench_prune_tensor_moderate(benchmark, weight_matrix):
    with memo_disabled():
        result = benchmark(
            prune_tensor, weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, 32, 8, None, False
        )
    assert result.effective_bits() == pytest.approx(4.25)


def test_bench_prune_tensor_memoized(benchmark, weight_matrix):
    """The same compression served from the artifact memo (hash + copy)."""
    clear_memo()
    prune_tensor(weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, keep_original=False)
    result = benchmark(
        prune_tensor, weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, 32, 8, None, False
    )
    assert result.effective_bits() == pytest.approx(4.25)


def test_bench_bitflip_tensor(benchmark, weight_matrix):
    result = benchmark(bitflip_tensor, weight_matrix, 3)
    assert result.values.shape == weight_matrix.shape


def test_bench_global_pruning(benchmark, weight_matrix):
    layers = {"a": weight_matrix[:128], "b": weight_matrix[128:]}
    scores = {name: np.abs(values).max(axis=1).astype(float) for name, values in layers.items()}
    with memo_disabled():
        result = benchmark.pedantic(
            global_binary_prune, args=(layers, scores, MODERATE_PRESET), rounds=1, iterations=1
        )
    assert result.compression_ratio() > 1.3


# --------------------------------------------------------------------------- #
# Suite-level wall clock: what a whole experiment costs cold vs memoized
# --------------------------------------------------------------------------- #


def test_bench_experiment_cold(benchmark):
    """Figure 6 from scratch: synthesis + every compression, memo cleared."""

    def cold():
        clear_memo()
        return figure6_kl_divergence(seed=0)

    result = benchmark.pedantic(cold, rounds=1, iterations=1)
    assert result["rows"]


def test_bench_experiment_memoized(benchmark):
    """Figure 6 again in the same process: every artifact is a memo hit."""
    clear_memo()
    figure6_kl_divergence(seed=0)
    result = benchmark.pedantic(
        figure6_kl_divergence, kwargs={"seed": 0}, rounds=2, iterations=1
    )
    assert result["rows"]
