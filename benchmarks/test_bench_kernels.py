"""The core BBS kernels on evaluation-sized inputs, and their speed guards.

The ``test_bench_*`` checks run each kernel once on a full-size fixture (a
256x1024 INT8 layer, 40k bit-flip groups, 80k BitVert PE groups, the sampled
ResNet-50 layers) and check its output.  The ``*_speedup_over_reference``
guards time each fast kernel against the ``*_reference`` oracle it replaced,
interleaved in one process, so their verdict holds on any machine: the fast
kernel must be at least 1.5x faster and bit-identical.  The floors sit far
below the measured ratios; they catch a lost optimization, not drift.
Absolute timings are tracked by ``perfbench`` (``python3 perfbench/run.py``).
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


def test_bench_sparsity_report(weight_matrix):
    assert sparsity_report(weight_matrix).bbs >= 0.5


def test_bench_bbs_sparsity(weight_matrix):
    assert bbs_sparsity(weight_matrix) >= 0.5


def test_bench_rounded_average(weight_groups):
    values, _, _, _ = rounded_average_groups(weight_groups, 2)
    assert values.shape == weight_groups.shape


def test_bench_zero_point_shift(weight_groups):
    values, _, _, _ = zero_point_shift_groups(weight_groups, 4)
    assert values.shape == weight_groups.shape


def test_bench_zero_point_shift_reference(weight_groups):
    """The original per-candidate search, the oracle of the speed guard."""
    values, _, _, _ = zero_point_shift_groups_reference(weight_groups, 4)
    assert values.shape == weight_groups.shape


def interleaved_speedup(reference, fast, rounds: int = 3) -> tuple[float, object, object]:
    """Time ``reference`` and ``fast`` in turn; return the speedup and outputs.

    Timings are interleaved (reference, fast, reference, fast, ...) so that a
    load spike on a shared machine hits both sides alike.  The speedup is the
    fastest reference run over the fastest fast run; the outputs are those of
    the last run of each side, so callers can check them without rerunning.
    """
    reference_times, fast_times = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        reference_output = reference()
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast_output = fast()
        fast_times.append(time.perf_counter() - start)
    return min(reference_times) / min(fast_times), reference_output, fast_output


def test_zero_point_shift_speedup_over_reference(weight_groups):
    """Guard for the table-driven search (measured ~30x on this fixture)."""
    speedup, reference, fast = interleaved_speedup(
        lambda: zero_point_shift_groups_reference(weight_groups, 4),
        lambda: zero_point_shift_groups(weight_groups, 4),
    )
    print(f"\nzero_point_shift_groups speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(fast, reference, strict=True):
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
def test_bench_clip_search(request, layer):
    rows = request.getfixturevalue(layer)
    assert optimal_clip_scale(rows, 4).shape == (rows.shape[0],)


@pytest.mark.parametrize("layer", ["int8_layer", "float_layer"])
def test_bench_clip_search_reference(request, layer):
    """The original one-channel candidate loop, the oracle of the speed guard."""
    rows = request.getfixturevalue(layer)
    assert clip_search_reference(rows, 4).shape == (rows.shape[0],)


@pytest.mark.parametrize("layer", ["int8_layer", "float_layer"])
def test_clip_search_speedup_over_reference(request, layer):
    """Guard for the batched clip search (measured ~80x on the INT8 layer
    through the level histograms, ~6x on the float layer)."""
    rows = request.getfixturevalue(layer)
    speedup, reference, fast = interleaved_speedup(
        lambda: clip_search_reference(rows, 4), lambda: optimal_clip_scale(rows, 4)
    )
    print(f"\noptimal_clip_scale speedup over reference ({layer}): {speedup:.1f}x")
    assert speedup >= 1.5
    assert np.array_equal(fast, reference)


def test_bench_bitflip_batch(bitflip_groups):
    values, _, _ = _bitflip_batch(bitflip_groups, 3, 8)
    assert values.shape == bitflip_groups.shape


def test_bench_bitflip_batch_reference(bitflip_groups):
    """The original bit-plane kernel, the oracle of the speed guard."""
    values, _, _ = _bitflip_batch_reference(bitflip_groups, 3, 8)
    assert values.shape == bitflip_groups.shape


def test_bitflip_batch_speedup_over_reference(bitflip_groups):
    """Guard for the arithmetic bit-flip (measured ~10x)."""
    speedup, reference, fast = interleaved_speedup(
        lambda: _bitflip_batch_reference(bitflip_groups, 3, 8),
        lambda: _bitflip_batch(bitflip_groups, 3, 8),
    )
    print(f"\n_bitflip_batch speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(fast, reference, strict=True):
        assert np.array_equal(new, old)


@pytest.fixture(scope="module")
def column_vectors() -> np.ndarray:
    """80k INT8 vectors of 16 weights: one BitVert PE group each."""
    rng = np.random.default_rng(4)
    return np.clip(np.round(rng.normal(0, 24, (80_000, 16))), -128, 127).astype(np.int64)


def column_ones_reference(values: np.ndarray, bits: int) -> np.ndarray:
    return to_bitplanes(values, bits).sum(axis=-2)


def test_bench_column_ones(column_vectors):
    assert column_ones(column_vectors, 8).shape == (column_vectors.shape[0], 8)


def test_bench_column_ones_reference(column_vectors):
    """The bit-plane sum the accelerator models used before, the guard's oracle."""
    assert column_ones_reference(column_vectors, 8).shape == (column_vectors.shape[0], 8)


def test_column_ones_speedup_over_reference(column_vectors):
    """Guard for the popcount column counts (measured ~20x)."""
    speedup, reference, fast = interleaved_speedup(
        lambda: column_ones_reference(column_vectors, 8),
        lambda: column_ones(column_vectors, 8),
    )
    print(f"\ncolumn_ones speedup over the plane sum: {speedup:.1f}x")
    assert speedup >= 1.5
    assert np.array_equal(fast, reference)


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


def test_bench_ant_quantize(resnet50_layers):
    assert len(ant_quantize_layers(ant_quantize, resnet50_layers)) == len(resnet50_layers)


def test_bench_ant_quantize_reference(resnet50_layers):
    """The original per-channel loop, the oracle of the speed guard."""
    values = ant_quantize_layers(ant_quantize_reference, resnet50_layers)
    assert len(values) == len(resnet50_layers)


def test_ant_quantize_speedup_over_reference(resnet50_layers):
    """Guard for the batched ANT quantizer (measured ~5x)."""
    speedup, reference, fast = interleaved_speedup(
        lambda: ant_quantize_layers(ant_quantize_reference, resnet50_layers),
        lambda: ant_quantize_layers(ant_quantize, resnet50_layers),
    )
    print(f"\nant_quantize speedup over reference: {speedup:.1f}x")
    assert speedup >= 1.5
    for new, old in zip(fast, reference, strict=True):
        assert np.array_equal(new, old)


def test_bench_prune_tensor_moderate(weight_matrix):
    with memo_disabled():
        result = prune_tensor(
            weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, 32, 8, None, False
        )
    assert result.effective_bits() == pytest.approx(4.25)


def test_bench_prune_tensor_memoized(weight_matrix):
    """The same compression served from the artifact memo (hash + copy)."""
    clear_memo()
    cold = prune_tensor(weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, keep_original=False)
    result = prune_tensor(
        weight_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT, 32, 8, None, False
    )
    assert result.effective_bits() == pytest.approx(4.25)
    assert np.array_equal(result.values, cold.values)


def test_bench_bitflip_tensor(weight_matrix):
    assert bitflip_tensor(weight_matrix, 3).values.shape == weight_matrix.shape


def test_bench_global_pruning(weight_matrix):
    layers = {"a": weight_matrix[:128], "b": weight_matrix[128:]}
    scores = {name: np.abs(values).max(axis=1).astype(float) for name, values in layers.items()}
    with memo_disabled():
        result = global_binary_prune(layers, scores, MODERATE_PRESET)
    assert result.compression_ratio() > 1.3


# --------------------------------------------------------------------------- #
# A whole experiment, cold and then memoized
# --------------------------------------------------------------------------- #


def test_bench_experiment_cold():
    """Figure 6 from scratch: synthesis + every compression, memo cleared."""
    clear_memo()
    assert figure6_kl_divergence(seed=0)["rows"]


def test_bench_experiment_memoized():
    """Figure 6 again in the same process: every artifact is a memo hit."""
    first = figure6_kl_divergence(seed=0)
    memoized = figure6_kl_divergence(seed=0)
    assert memoized["rows"]
    assert memoized["rows"] == first["rows"]
