"""Golden-equivalence tests for the optimized kernels and the artifact memo.

The table-driven zero-point search, the batched clip search, the arithmetic
bit-flip, the plane-free bit statistics, the integer KL path, the batched ANT
quantizer and the artifact memo are pure optimizations: they must return
*bit-identical* results to the original implementations.  These tests pin
that property across random shapes, pruning budgets, word widths, and
degenerate inputs, using the kept reference implementations
(``zero_point_shift_groups_reference``, ``optimal_clip_scale_reference``,
``_bitflip_batch_reference`` and ``ant_quantize_reference``), the public
``to_bitplanes`` and ``np.histogram`` as the oracles.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import (
    ArrayConfig,
    BitletAccelerator,
    BitVertAccelerator,
    BitWaveAccelerator,
    GroupCycleStats,
    PragmaticAccelerator,
    SparTenAccelerator,
    StripesAccelerator,
)
from repro.core import (
    PruningStrategy,
    clear_memo,
    get_memo,
    memo_disabled,
    memo_stats,
    prune_tensor,
    stable_digest,
)
from repro.core.bitplane import column_ones, int_range, to_bitplanes
from repro.core.global_pruning import CONSERVATIVE_PRESET, MODERATE_PRESET
from repro.core.metrics import kl_divergence
from repro.core import zero_point_shift as zero_point_shift_module
from repro.core.zero_point_shift import (
    zero_point_shift_groups,
    zero_point_shift_groups_reference,
)
from repro.eval.benchmarks import BenchmarkSuite
from repro.eval.experiments import FIGURE16_BITVERT_SWEEP, _compress_model
from repro.nn.model_zoo import get_model
from repro.nn.synthetic import ModelWeights, layer_digests, synthesize_model
from repro.quant.ant_datatype import ant_quantize, ant_quantize_reference
from repro.quant.bitflip import _bitflip_batch, _bitflip_batch_reference
from repro.quant.ptq import optimal_clip_scale, optimal_clip_scale_reference


def assert_search_matches(
    groups: np.ndarray, num_columns: int, bits: int = 8, constant_bits: int = 6
) -> None:
    kwargs = {"bits": bits, "constant_bits": constant_bits}
    reference = zero_point_shift_groups_reference(groups, num_columns, **kwargs)
    fast = zero_point_shift_groups(groups, num_columns, **kwargs)
    for name, ref, new in zip(
        ("values", "num_redundant", "num_sparse", "constants"), reference, fast,
        strict=True,
    ):
        assert new.dtype == ref.dtype, name
        assert np.array_equal(new, ref), f"{name} diverged from the reference"


@st.composite
def int8_group_matrices(draw) -> np.ndarray:
    num_groups = draw(st.integers(1, 12))
    group_size = draw(st.integers(1, 24))
    flat = draw(
        st.lists(
            st.integers(-128, 127),
            min_size=num_groups * group_size,
            max_size=num_groups * group_size,
        )
    )
    return np.array(flat, dtype=np.int64).reshape(num_groups, group_size)


class TestZeroPointShiftEquivalence:
    @given(int8_group_matrices(), st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_property_bit_identical_int8(self, groups, num_columns):
        assert_search_matches(groups, num_columns)

    @given(
        st.integers(2, 8),
        st.integers(1, 8),
        st.integers(0, 6),
        st.integers(1, 24),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical_word_widths(
        self, bits, constant_bits, num_columns, num_groups, group_size, seed
    ):
        # Every word and constant width the error table serves; the narrow
        # spreads make saturated, near-constant groups common.
        lo, hi = int_range(bits)
        rng = np.random.default_rng(seed)
        centre = rng.integers(lo, hi + 1)
        spread = int(rng.choice([0, 1, 3, hi - lo]))
        groups = np.clip(
            centre + rng.integers(-spread, spread + 1, size=(num_groups, group_size)),
            lo,
            hi,
        )
        assert_search_matches(groups, num_columns, bits=bits, constant_bits=constant_bits)

    @pytest.mark.parametrize("sigma", [2.0, 24.0, 60.0])
    @pytest.mark.parametrize("num_columns", [1, 2, 4, 6])
    def test_gaussian_layers_bit_identical(self, sigma, num_columns):
        rng = np.random.default_rng(7)
        groups = np.clip(
            np.round(rng.normal(0, sigma, (512, 32))), -128, 127
        ).astype(np.int64)
        assert_search_matches(groups, num_columns)

    def test_saturated_and_constant_groups(self):
        groups = np.array(
            [
                [127] * 8,
                [-128] * 8,
                [-128, 127] * 4,
                [0] * 8,
                [-1] * 8,
                [64] * 8,
                [-1, -1, -1, -1, -1, -1, 59, -59],
            ],
            dtype=np.int64,
        )
        for num_columns in range(7):
            assert_search_matches(groups, num_columns)

    @pytest.mark.parametrize("search", [zero_point_shift_groups, zero_point_shift_groups_reference])
    @pytest.mark.parametrize(
        "groups, kwargs, error, match",
        [
            (np.array([[1.7, -2.2, 3.9, 0.4]]), {}, TypeError, "integer"),
            (np.array([[True, False]]), {}, TypeError, "integer"),
            (np.array([[200, 5]], dtype=np.uint8), {}, ValueError, "range"),
            (np.array([[300, -400, 5, 7]]), {}, ValueError, "range"),
            (np.array([[1, 2, 3, 4]]), {"bits": 1}, ValueError, "at least 2 bits"),
            (np.array([[1, 2, 3, 4]]), {"bits": 0}, ValueError, "at least 2 bits"),
            (np.array([[1, 2, 3, 4]]), {"constant_bits": 0}, ValueError, "constant_bits"),
        ],
    )
    def test_bad_inputs_rejected_by_both_paths(self, search, groups, kwargs, error, match):
        # Both paths used to truncate floats, wrap out-of-word values and fail
        # deep inside on zero widths; now they validate up front.
        for num_columns in (0, 4):
            with pytest.raises(error, match=match):
                search(groups, num_columns, **kwargs)

    @pytest.mark.parametrize(
        "bits, constant_bits, group_size, reference_calls",
        [
            # The float32 scores are exact while group_size * error_bound**2
            # < 2**24, with error_bound = 64 + 2**(constant_bits - 1): the
            # largest accepted sizes are 1820 (6-bit) and 455 (8-bit).
            (8, 6, 1820, 0),
            (8, 6, 1821, 1),
            (8, 8, 455, 0),
            (8, 8, 456, 1),
            # Words wider than the 8-bit error table.
            (9, 6, 16, 1),
            (12, 6, 16, 1),
        ],
    )
    def test_reference_fallback_boundaries(
        self, bits, constant_bits, group_size, reference_calls, monkeypatch
    ):
        # Saturated and half-block values give the largest rounding errors.
        worst = np.array([-128, 127, -96, 96, -32, 32, 95, -97])
        rng = np.random.default_rng(group_size)
        groups = np.stack(
            [np.resize(worst, group_size), np.resize(worst[::-1], group_size)]
            + [rng.choice(worst, group_size) for _ in range(4)]
        )
        kwargs = {"bits": bits, "constant_bits": constant_bits}
        expected = zero_point_shift_groups_reference(groups, 6, **kwargs)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return expected

        monkeypatch.setattr(zero_point_shift_module, "zero_point_shift_groups_reference", spy)
        fast = zero_point_shift_groups(groups, 6, **kwargs)
        assert len(calls) == reference_calls
        for new, ref in zip(fast, expected, strict=True):
            assert np.array_equal(new, ref)

    def test_rounding_tables_cached_read_only(self):
        tables = zero_point_shift_module._rounding_tables
        tables.cache_clear()
        groups = np.array([[-5, 3, 7, 0], [2, 2, -1, 6]])
        first = zero_point_shift_groups(groups, 3)
        again = zero_point_shift_groups(groups, 3)
        assert tables.cache_info().hits == 1 and tables.cache_info().misses == 1
        for table in tables(-5, 13, 3, 8, 6):
            assert not table.flags.writeable
        for new, ref in zip(again, first, strict=True):
            assert np.array_equal(new, ref)
        assert_search_matches(groups, 3)

    def test_empty_inputs(self):
        assert_search_matches(np.empty((0, 8), dtype=np.int64), 4)

    def test_big_layer_bit_identical_across_group_blocks(self):
        # Spans several histogram blocks, the last one partial, so the block
        # loop's offsets and per-block redundant lookups are exercised.
        rng = np.random.default_rng(3)
        groups = np.clip(
            np.round(rng.normal(0, 24, (9000, 32))), -128, 127
        ).astype(np.int64)
        assert_search_matches(groups, 4)


def assert_clip_search_matches(rows: np.ndarray, bits: int, num_candidates: int = 100) -> None:
    reference = np.array(
        [optimal_clip_scale_reference(row, bits, num_candidates) for row in rows]
    )
    fast = optimal_clip_scale(rows, bits, num_candidates)
    assert fast.dtype == reference.dtype == np.float64
    assert np.array_equal(fast, reference), "batched clip search diverged"
    # A single channel still gives a Python float, equal to its row's scale.
    if len(rows):
        single = optimal_clip_scale(rows[0], bits, num_candidates)
        assert type(single) is float
        assert single == reference[0]


@st.composite
def integer_rows(draw) -> np.ndarray:
    """Integer-valued rows, from few levels (histogram search) to many (dense)."""
    num_rows = draw(st.integers(1, 6))
    length = draw(st.integers(1, 64))
    magnitude = draw(st.integers(0, 160))
    flat = draw(
        st.lists(
            st.integers(-magnitude, magnitude),
            min_size=num_rows * length,
            max_size=num_rows * length,
        )
    )
    return np.array(flat, dtype=np.float64).reshape(num_rows, length)


class TestClipSearchEquivalence:
    @given(integer_rows(), st.integers(2, 8))
    @settings(max_examples=150, deadline=None)
    def test_property_integer_rows_bit_identical(self, rows, bits):
        assert_clip_search_matches(rows, bits)

    @given(
        st.integers(1, 5),
        st.integers(1, 48),
        st.floats(1e-3, 1e3),
        st.integers(2, 8),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_float_rows_bit_identical(self, num_rows, length, sigma, bits, seed):
        rows = np.random.default_rng(seed).normal(0.0, sigma, (num_rows, length))
        assert_clip_search_matches(rows, bits)

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_property_int8_layers_and_candidate_counts(self, bits, seed, num_candidates):
        # Requantized INT8 rows: the shape the paper experiments search.
        rng = np.random.default_rng(seed)
        rows = np.clip(np.round(rng.normal(0, rng.uniform(1, 60), (8, 96))), -128, 127)
        assert_clip_search_matches(rows, bits, num_candidates)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_degenerate_rows(self, bits):
        edge = 1 << (bits - 1)
        rows = np.array(
            [
                [0.0] * 6,
                [3.0] * 6,
                [-2.5] * 6,
                [edge, -edge, 0, 0, 0, 0],
                [-edge] * 6,
                [edge - 1, -edge, 1, -1, 0, 0],
                [1e-3, 0, 0, 0, 0, 0],
            ]
        )
        assert_clip_search_matches(rows, bits)
        assert_clip_search_matches(rows[:, :1], bits)  # N = 1
        assert_clip_search_matches(np.empty((2, 0)), bits)  # empty rows
        assert_clip_search_matches(np.empty((0, 4)), bits)  # no rows

    @pytest.mark.parametrize("rows", [[[-2.0, 0, 0, 0, 0]], [[-2.0, 0]]])
    def test_tied_candidates_keep_the_first(self, rows):
        # At 2 bits with 9 candidates, fractions 0.5 and 1.0 both reconstruct
        # -2 exactly: the earlier (smaller) scale must win, on the histogram
        # path (5 elements) and on the dense path (2 elements).
        rows = np.array(rows)
        all_mse = [
            float(np.mean((np.clip(np.round(rows[0] / s), -2, 1) * s - rows[0]) ** 2))
            for s in np.linspace(0.2, 1.0, 9) * 2.0
        ]
        assert all_mse.count(min(all_mse)) == 2
        assert_clip_search_matches(rows, 2, num_candidates=9)
        assert optimal_clip_scale(rows[0], 2, 9) == 1.0

    # Rows whose best candidates' MSEs differ only in the last bits, found by
    # searching random small-integer rows.  On the first three, the lowest
    # histogram score is not the reference's winner, so the rounding bound
    # must keep the winner; on the last three (half-integers, dense path), a
    # sequential sum instead of the reference's pairwise one picks another
    # candidate.
    NEAR_TIES = [
        (2, 59, [0, -2, 1, 0, 2, 1, 2, -3, -1, -2, -1, -2, -2, 2, -1, 3, -2, 1, -2, -2, 3,
                 -2, -3, 0, -3, -1, 3, -3, 3, 2], 1.0),
        (3, 27, [-1, 0, -1, 0, 1, -2, 0, 2, 2, 2, -2, 2, -1, 2, 1, 1, 2, 1, 1, -1, 0, 0, -2,
                 -1, 2, 0, -1, -2, 1, 0, 1, -1, 2, -2, -2], 1.0),
        (2, 28, [-2, 4, -1, 0, -3, -1, 4, 1, -1, -4, 1, 0, -3, -1, -2, -4, 1, 1, 2, 1], 1.0),
        (3, 30, [0, 3, -3, -4, 4, 1, 4, -5, 6, 4, 4, -5, 2, 1, -4, 5, 4, 4, 3, -4, 3, -1, 3,
                 1, 4, 0, -3, 2, 2, -3, 0], 0.5),
        (2, 74, [-5, -5, -5, -3, 0, 5, -6, -5, 4, -1, -2, 5, -3, 5, 1, -4, 6, 5, -3, 2, -4,
                 -4, -2, -2, 4, -3, 6, 2, -4, -5, -6, 6, -3, -2, -2, 3, 3, 3, 2, 4, 3, -4,
                 -1], 0.5),
        (2, 58, [-3, -1, -5, 5, 6, -4, 5, -3, -3, -2, 2, -4, -6], 0.5),
    ]

    @pytest.mark.parametrize("bits, num_candidates, row, unit", NEAR_TIES)
    def test_rounding_near_ties(self, bits, num_candidates, row, unit):
        assert_clip_search_matches(np.array([row]) * unit, bits, num_candidates)

    def test_candidate_counts_zero_and_one(self):
        rows = np.array([[5.0, -3.0, 1.0, 0.0], [0.25, -0.5, 0.0, 0.0]])
        for num_candidates in (0, 1, 2):
            assert_clip_search_matches(rows, 4, num_candidates)

    def test_long_rows_chunk_over_candidates(self):
        # Rows longer than one scratch block split the candidates as well;
        # 70k elements also take numpy's recursive pairwise summation.
        rng = np.random.default_rng(5)
        floats = rng.normal(0, 1, (1, 70_000))
        ints = np.clip(np.round(rng.normal(0, 30, (1, 70_000))), -128, 127)
        for rows in (floats, ints):
            assert_clip_search_matches(rows, 4, num_candidates=12)

    def test_non_finite_rows_match_the_loop(self):
        rows = np.array([[1.0, np.nan, 2.0], [1.0, np.inf, 0.0], [1.0, -np.inf, np.nan]])
        with np.errstate(invalid="ignore"):
            fast = optimal_clip_scale(rows, 4)
            reference = [optimal_clip_scale_reference(row, 4) for row in rows]
        assert np.array_equal(fast, reference, equal_nan=True)

    def test_calibrated_quantizers_unchanged(self):
        from repro.quant.ptq import (
            quantize_per_channel,
            quantize_per_tensor,
            requantize_to_lower_bits,
        )

        rng = np.random.default_rng(11)
        weights = rng.normal(0, 0.05, (24, 80))
        per_channel = quantize_per_channel(weights, 4, calibrate=True)
        expected = [optimal_clip_scale_reference(row, 4) for row in weights]
        assert np.array_equal(per_channel.scales, expected)
        per_tensor = quantize_per_tensor(weights, 4, calibrate=True)
        assert per_tensor.scales[0] == optimal_clip_scale_reference(weights.ravel(), 4)

        int8 = quantize_per_channel(weights, 8)
        sensitive = rng.random(24) < 0.25
        lower = requantize_to_lower_bits(int8, 5, sensitive_channels=sensitive)
        for channel, row in enumerate(int8.values):
            if sensitive[channel]:
                assert np.array_equal(lower.values[channel], row)
                continue
            step = optimal_clip_scale_reference(row.astype(np.float64), 5)
            codes = np.clip(np.round(row / step), -16, 15)
            expected_row = np.clip(np.round(codes * step), -128, 127).astype(np.int64)
            assert np.array_equal(lower.values[channel], expected_row)


def assert_bitflip_matches(groups: np.ndarray, num_columns: int, bits: int) -> None:
    reference = _bitflip_batch_reference(groups, num_columns, bits)
    fast = _bitflip_batch(groups, num_columns, bits)
    for name, ref, new in zip(("values", "inherent", "forced"), reference, fast, strict=True):
        assert new.dtype == ref.dtype, name
        assert np.array_equal(new, ref), f"{name} diverged from the reference"


class TestBitflipEquivalence:
    @given(st.data(), st.integers(2, 8), st.integers(1, 12), st.integers(1, 24))
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical_word_widths(self, data, bits, num_groups, group_size):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        num_columns = data.draw(st.integers(0, bits - 1))
        flat = data.draw(
            st.lists(
                st.integers(lo, hi),
                min_size=num_groups * group_size,
                max_size=num_groups * group_size,
            )
        )
        groups = np.array(flat, dtype=np.int64).reshape(num_groups, group_size)
        assert_bitflip_matches(groups, num_columns, bits)

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_most_negative_code_every_column_count(self, bits):
        lo = -(1 << (bits - 1))
        groups = np.array(
            [
                [lo] * 4,
                [lo, 0, 0, 0],
                [lo, -lo - 1, 1, -1],
                [0, 0, 0, 0],
                [1, -1, 0, 1],
            ],
            dtype=np.int64,
        )
        for num_columns in range(bits):
            assert_bitflip_matches(groups, num_columns, bits)

    def test_gaussian_layer_bit_identical(self):
        rng = np.random.default_rng(9)
        groups = np.clip(np.round(rng.normal(0, 24, (4096, 32))), -128, 127).astype(np.int64)
        for num_columns in range(8):
            assert_bitflip_matches(groups, num_columns, 8)

    def test_out_of_range_values_rejected(self):
        groups = np.array([[300, 1]], dtype=np.int64)
        with pytest.raises(ValueError):
            _bitflip_batch_reference(groups, 2, 8)
        with pytest.raises(ValueError):
            _bitflip_batch(groups, 2, 8)


ANT_DATATYPES = ("int", "pot", "flint")

#: Non-empty subsets of the ANT datatypes, in every order.
ant_datatype_choices = st.lists(
    st.sampled_from(ANT_DATATYPES), min_size=1, max_size=3, unique=True
).map(tuple)


def assert_ant_matches(weights: np.ndarray, bits: int, datatypes=ANT_DATATYPES) -> None:
    reference = ant_quantize_reference(weights, bits, datatypes)
    fast = ant_quantize(weights, bits, datatypes)
    assert fast.values.dtype == reference.values.dtype
    assert np.array_equal(fast.values, reference.values), "batched ANT diverged"
    assert fast.chosen_datatypes == reference.chosen_datatypes


@st.composite
def ant_int_matrices(draw) -> np.ndarray:
    """INT8 matrices in several integer dtypes, with some rows zeroed."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 48))
    magnitude = draw(st.integers(0, 128))
    flat = draw(
        st.lists(
            st.integers(-magnitude, min(magnitude, 127)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    weights = np.array(flat, dtype=np.int64).reshape(rows, cols)
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    weights[np.array(zero_rows, dtype=bool)] = 0
    return weights.astype(draw(st.sampled_from([np.int64, np.int8, np.int16])))


class TestAntEquivalence:
    @given(ant_int_matrices(), st.integers(3, 8), ant_datatype_choices)
    @settings(max_examples=150, deadline=None)
    def test_property_int_matrices_bit_identical(self, weights, bits, datatypes):
        assert_ant_matches(weights, bits, datatypes)

    @given(
        st.integers(0, 6),
        st.integers(0, 48),
        st.floats(1e-3, 1e3),
        st.integers(3, 8),
        ant_datatype_choices,
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_float_matrices_bit_identical(
        self, rows, cols, sigma, bits, datatypes, seed
    ):
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, sigma, (rows, cols))
        weights[rng.random(rows) < 0.2] = 0.0
        assert_ant_matches(weights, bits, datatypes)

    @pytest.mark.parametrize("bits", range(3, 9))
    def test_rows_with_the_most_negative_code(self, bits):
        weights = np.array(
            [
                [-128, 127, 64, -1],
                [-128, -128, -128, -128],
                [127, -128, 0, 0],
                [0, 0, 0, 0],
                [1, -1, 0, 1],
            ],
            dtype=np.int64,
        )
        for datatypes in (ANT_DATATYPES, ("flint", "int"), ("pot",)):
            assert_ant_matches(weights, bits, datatypes)
        assert ant_quantize(weights, bits).values.max() <= 127

    def test_zero_width_and_empty_matrices(self):
        for weights in (
            np.empty((3, 0), dtype=np.int64),
            np.empty((3, 0)),
            np.empty((0, 5), dtype=np.int8),
            np.empty((0, 0)),
        ):
            assert_ant_matches(weights, 6)
            assert ant_quantize(weights, 6).chosen_datatypes == ["int"] * len(weights)

    def test_overflowing_errors_pick_the_first_datatype(self):
        # Every MSE of this row overflows to inf; the loop used to fail an
        # assert here.
        weights = np.array([[1e160, -3.3e159, 5.1e159, 7.7e158]])
        datatypes = ("pot", "flint", "int")
        with np.errstate(over="ignore"):
            assert_ant_matches(weights, 6, datatypes)
            assert ant_quantize(weights, 6, datatypes).chosen_datatypes == ["pot"]

    def test_duplicate_datatypes_match_the_loop(self):
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        assert_ant_matches(weights, 5, ("pot", "int", "pot"))

    def test_figure16_resnet50_layers_bit_identical(self):
        # The layers figure 16 and Table II quantize to ANT 6-bit.
        model = synthesize_model(
            get_model("ResNet-50"), seed=0, max_channels=96, max_reduction=768
        )
        for layer in model.values():
            assert_ant_matches(layer.int_weights, 6)


def assert_column_ones_matches(values: np.ndarray, bits: int) -> None:
    expected = to_bitplanes(values, bits).sum(axis=-2)
    ones = column_ones(values, bits)
    assert ones.dtype == np.int64
    assert ones.shape == values.shape[:-1] + (bits,)
    assert np.array_equal(ones, expected)


class TestColumnOnesEquivalence:
    @given(
        st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
        st.integers(2, 16),
        st.lists(st.integers(0, 5), min_size=0, max_size=2),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_plane_sum(self, dtype, bits, lead, length, seed):
        lo, hi = int_range(bits)
        info = np.iinfo(dtype)
        lo, hi = max(lo, info.min), min(hi, info.max)
        values = np.random.default_rng(seed).integers(lo, hi + 1, size=(*lead, length))
        assert_column_ones_matches(values.astype(dtype), bits)

    @pytest.mark.parametrize("bits", range(2, 17))
    def test_lane_boundaries_and_extremes(self, bits):
        lo, hi = int_range(bits)
        # N = 1, N one short of / one past a whole uint64 word of 8-, 16- and
        # 32-bit lanes, and rows of the most negative and the largest code.
        for length in (1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 33):
            rows = np.array([[lo] * length, [hi] * length, [-1] * length, [0] * length])
            assert_column_ones_matches(rows, bits)
            assert_column_ones_matches(rows[:, None, :], bits)

    def test_empty_leading_dims_and_vectors(self):
        for shape in [(0, 8), (3, 0, 5), (4, 0), (0,)]:
            assert_column_ones_matches(np.zeros(shape, dtype=np.int64), 8)

    @pytest.mark.parametrize(
        "values, error",
        [
            (np.array([[200, 1]]), ValueError),
            (np.array([[-129, 1]]), ValueError),
            (np.array([[1.5, 2.0]]), TypeError),
            (np.array([[1.0, 2.0]]), TypeError),
            (np.array([[True, False]]), TypeError),
        ],
    )
    def test_rejects_like_to_bitplanes(self, values, error):
        with pytest.raises(error) as planes_error:
            to_bitplanes(values, 8)
        with pytest.raises(error) as ones_error:
            column_ones(values, 8)
        assert str(ones_error.value) == str(planes_error.value)


def histogram_kl(original, compressed) -> float:
    """``kl_divergence``'s histogram path, forced with float inputs."""
    return kl_divergence(
        np.asarray(original, dtype=np.float64), np.asarray(compressed, dtype=np.float64)
    )


class TestIntegerKLEquivalence:
    @pytest.mark.parametrize("span", [1, 2, 255, 4096, 4097, 9000])
    @pytest.mark.parametrize("lo", [-128, 0, -2048, 1_000_000])
    def test_spans_match_the_histograms(self, span, lo, monkeypatch):
        # Span 4096 is the last one-bin-per-level case, which must not build a
        # histogram; 4097 and wider take the 4096-bin histogram path.
        rng = np.random.default_rng(span)
        original = rng.integers(lo, lo + span, size=3000)
        compressed = rng.integers(lo, lo + span, size=1000)
        original[:2] = (lo, lo + span - 1)  # pin the support
        expected = histogram_kl(original, compressed)
        if span <= 4096:
            monkeypatch.setattr(np, "histogram", None)
        assert kl_divergence(original, compressed) == expected

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8])
    def test_dtypes_match_the_histograms(self, dtype):
        rng = np.random.default_rng(4)
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -128), min(info.max, 127)
        original = rng.integers(lo, hi + 1, size=500).astype(dtype)
        compressed = (original // 4 * 4).astype(dtype)
        assert kl_divergence(original, compressed) == histogram_kl(original, compressed)

    def test_int_float_mixes_take_the_histograms(self):
        rng = np.random.default_rng(5)
        ints = rng.integers(-128, 128, size=400)
        for floats in (ints.astype(np.float64), ints * 0.5):
            assert kl_divergence(ints, floats) == histogram_kl(ints, floats)
            assert kl_divergence(floats, ints) == histogram_kl(floats, ints)

    def test_explicit_binning_and_degenerate_inputs(self):
        ints = np.array([-3, 0, 2, 2, 5])
        other = np.array([-3, 1, 1, 2, 5])
        assert kl_divergence(ints, other, bins=4) == kl_divergence(
            ints.astype(float), other.astype(float), bins=4
        )
        assert kl_divergence(ints, other, value_range=(-4, 6)) == kl_divergence(
            ints.astype(float), other.astype(float), value_range=(-4, 6)
        )
        assert kl_divergence(np.full(5, 7), np.full(3, 7)) == 0.0
        with pytest.raises(ValueError):
            kl_divergence(np.array([], dtype=np.int64), ints)


class PlaneBitVert(BitVertAccelerator):
    """BitVert with the per-sub-group counts taken from bit planes."""

    def _minimal_cycles(self, pruned_weights, lanes):
        pe_group = self.array.pe_group_size
        lo, hi = int_range(self.weight_bits)
        weights = np.clip(np.asarray(pruned_weights), lo, hi)
        channels, reduction = weights.shape
        usable = reduction - (reduction % pe_group)
        if usable == 0:
            groups = np.zeros((channels, pe_group), dtype=weights.dtype)
            groups[:, :reduction] = weights
        else:
            groups = weights[:, :usable].reshape(-1, pe_group)
        planes = to_bitplanes(groups.astype(np.int64), self.weight_bits)
        per_sub = planes.reshape(
            groups.shape[0], pe_group // self.sub_group, self.sub_group, self.weight_bits
        )
        ones = per_sub.sum(axis=2)
        effectual = np.minimum(ones, self.sub_group - ones).sum(axis=(1, 2))
        return np.maximum(np.ceil(effectual / lanes), 1.0).astype(np.float64)


class PlaneBitlet(BitletAccelerator):
    def group_cycle_stats(self, layer):
        planes = to_bitplanes(self.layer_groups(layer), self.weight_bits)
        ones_per_significance = planes.sum(axis=1)
        actual = np.maximum(ones_per_significance.max(axis=1).astype(np.float64), 1.0)
        minimal = np.ceil(ones_per_significance.sum(axis=1) / self.array.lanes_per_pe)
        minimal = np.minimum(np.maximum(minimal, 1.0), actual)
        return GroupCycleStats(actual=actual, minimal=minimal)


class PlanePragmatic(PragmaticAccelerator):
    def group_cycle_stats(self, layer):
        groups = self.layer_groups(layer)
        lanes = self.array.lanes_per_pe
        weights_per_lane = max(1, self.array.pe_group_size // lanes)
        ones_per_weight = to_bitplanes(groups, self.weight_bits).sum(axis=2)
        lane_view = ones_per_weight[:, : lanes * weights_per_lane].reshape(
            groups.shape[0], lanes, weights_per_lane
        )
        actual = np.maximum(lane_view.sum(axis=2).max(axis=1).astype(np.float64), 1.0)
        minimal = np.ceil(ones_per_weight.sum(axis=1) / lanes)
        minimal = np.minimum(np.maximum(minimal, 1.0), actual)
        return GroupCycleStats(actual=actual, minimal=minimal)


def assert_stats_equal(fast: GroupCycleStats, oracle: GroupCycleStats) -> None:
    for name in ("actual", "minimal"):
        assert np.array_equal(getattr(fast, name), getattr(oracle, name)), name
    if oracle.partition is None:
        assert fast.partition is None
    else:
        assert np.array_equal(fast.partition, oracle.partition)


@pytest.fixture(scope="module", params=["ResNet-50", "BERT-MRPC"])
def synthesized_layers(request):
    model = get_model(request.param)
    return synthesize_model(model, seed=3, max_channels=64, max_reduction=512)


class TestPlaneFreeAcceleratorStats:
    @pytest.mark.parametrize(
        "fast, oracle",
        [
            (
                lambda: BitVertAccelerator(CONSERVATIVE_PRESET),
                lambda: PlaneBitVert(CONSERVATIVE_PRESET),
            ),
            (lambda: BitVertAccelerator(MODERATE_PRESET), lambda: PlaneBitVert(MODERATE_PRESET)),
            (BitletAccelerator, PlaneBitlet),
            (PragmaticAccelerator, PlanePragmatic),
        ],
        ids=["bitvert-conservative", "bitvert-moderate", "bitlet", "pragmatic"],
    )
    def test_group_cycle_stats_match_plane_oracle(self, synthesized_layers, fast, oracle):
        fast, oracle = fast(), oracle()
        for layer in synthesized_layers.values():
            assert_stats_equal(fast.group_cycle_stats(layer), oracle.group_cycle_stats(layer))


class TestMemoizedCompressionEquivalence:
    @given(
        st.integers(1, 6),
        st.sampled_from([PruningStrategy.ROUNDED_AVERAGE, PruningStrategy.ZERO_POINT_SHIFT]),
        st.integers(4, 48),
        st.integers(8, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_memoized_prune_tensor_bit_identical(
        self, num_columns, strategy, channels, reduction, seed
    ):
        rng = np.random.default_rng(seed)
        weights = np.clip(
            np.round(rng.normal(0, 24, (channels, reduction))), -128, 127
        ).astype(np.int64)
        sensitive = rng.random(channels) < 0.2

        with memo_disabled():
            cold = prune_tensor(
                weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
            )
        clear_memo()
        first = prune_tensor(
            weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
        )
        hit = prune_tensor(
            weights, num_columns, strategy, group_size=16, sensitive_channels=sensitive
        )
        for result in (first, hit):
            assert np.array_equal(result.values, cold.values)
            assert np.array_equal(result.num_redundant, cold.num_redundant)
            assert np.array_equal(result.num_sparse, cold.num_sparse)
            assert np.array_equal(result.constants, cold.constants)
            assert np.array_equal(result.pruned_channel_mask, cold.pruned_channel_mask)
            assert np.array_equal(result.original, weights)
        assert result.storage_bits() == cold.storage_bits()

    def test_hit_returns_private_arrays(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        first = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        hit = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert hit.values is not first.values
        hit.values[:] = 0  # mutating a hit must not poison the memo
        again = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert np.array_equal(again.values, first.values)

    def test_keep_original_outside_the_key(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        with_original = prune_tensor(weights, 2, PruningStrategy.ROUNDED_AVERAGE)
        without = prune_tensor(
            weights, 2, PruningStrategy.ROUNDED_AVERAGE, keep_original=False
        )
        assert memo_stats()["tensors"]["hits"] >= 1
        assert without.original is None
        assert np.array_equal(with_original.original, weights)
        assert np.array_equal(with_original.values, without.values)

    def test_distinct_configurations_do_not_collide(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        a = prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        b = prune_tensor(weights, 2, PruningStrategy.ZERO_POINT_SHIFT)
        c = prune_tensor(weights, 4, PruningStrategy.ROUNDED_AVERAGE)
        d = prune_tensor(weights * 0 + 1, 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert memo_stats()["tensors"]["hits"] == 0
        assert memo_stats()["tensors"]["misses"] == 4
        assert not np.array_equal(a.values, b.values) or not np.array_equal(
            b.values, c.values
        )
        del d


class TestCrossExperimentMemoization:
    def test_shared_model_compressed_exactly_once(self):
        """Two experiment passes over the same model synthesize and compress
        each distinct layer exactly once (the PR's acceptance criterion)."""
        from repro.core.global_pruning import MODERATE_PRESET, global_binary_prune

        clear_memo()
        model = get_model("ResNet-34")

        def one_experiment_pass():
            weights = synthesize_model(model, seed=0, max_channels=48, max_reduction=192)
            layer_ints = {name: lw.int_weights for name, lw in weights.items()}
            scores = {name: lw.channel_scores for name, lw in weights.items()}
            return global_binary_prune(layer_ints, scores, preset=MODERATE_PRESET)

        first = one_experiment_pass()
        after_first = memo_stats()
        second = one_experiment_pass()
        after_second = memo_stats()

        num_layers = len(first.pruned_layers)
        # Pass 1: every layer is a miss.  Pass 2: every layer is a hit, and
        # not a single new compression or synthesis happens.
        assert after_first["tensors"]["misses"] == num_layers
        assert after_second["tensors"]["misses"] == num_layers
        assert after_second["tensors"]["hits"] == num_layers
        assert after_second["models"]["hits"] == 1
        for name in first.pruned_layers:
            assert np.array_equal(
                first.pruned_layers[name].values, second.pruned_layers[name].values
            )

    def test_memo_disabled_recomputes(self):
        clear_memo()
        weights = np.arange(-64, 64, dtype=np.int64).reshape(4, 32)
        with memo_disabled():
            prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
            prune_tensor(weights, 4, PruningStrategy.ZERO_POINT_SHIFT)
        stats = memo_stats()["tensors"]
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["stores"] == 0
        assert get_memo().enabled  # the context manager restored the flag


# --------------------------------------------------------------------------- #
# Whole-model evaluation memo (Accelerator.run_model, _compress_model)
# --------------------------------------------------------------------------- #

EVAL_CAPS = {"max_channels": 32, "max_reduction": 128}


def evaluation_accelerators() -> dict[str, object]:
    """The Figure 12/13 line-up plus Figure 16's own BitVert and BitWave designs."""
    accelerators = dict(BenchmarkSuite().accelerators())
    for label, preset in FIGURE16_BITVERT_SWEEP:
        accelerators[label] = BitVertAccelerator(preset=preset)
    accelerators["BitWave (3 cols)"] = BitWaveAccelerator(pruned_columns=3)
    return accelerators


EVALUATION_ACCELERATORS = list(evaluation_accelerators())

COMPRESSION_METHODS = [
    "bbs_cons", "bbs_mod", "bitwave", "bitwave2", "bitwave4", "ptq4", "ptq5",
    "ptq6", "microscaling6", "noisyquant6", "ant6", "olive4",
]


@pytest.fixture(scope="module")
def eval_models():
    models = {name: get_model(name) for name in ("ResNet-50", "ViT-Small")}
    return {
        name: (model, synthesize_model(model, seed=0, **EVAL_CAPS))
        for name, model in models.items()
    }


def evaluation_misses() -> int:
    return memo_stats()["evaluations"]["misses"]


def assert_fresh_evaluation(accel, model, weights) -> None:
    """``run_model`` misses the memo and matches a memo-off evaluation."""
    before = evaluation_misses()
    result = accel.run_model(model, weights)
    assert evaluation_misses() == before + 1
    with memo_disabled():
        expected = accel.run_model(model, weights)
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)


def derive_weights(model, weights, derive: str) -> dict:
    """A plain dict derived from synthesized ``weights``."""
    derived = dict(weights)
    if derive == "subset":
        del derived[model.layers[-1].name]
    elif derive == "replaced":
        name = model.layers[1].name
        derived[name] = synthesize_model(model, seed=1, **EVAL_CAPS)[name]
    return derived


class TestEvaluationMemo:
    @pytest.mark.parametrize("accel_name", EVALUATION_ACCELERATORS)
    @pytest.mark.parametrize("model_name", ["ResNet-50", "ViT-Small"])
    def test_hit_matches_memo_off(self, eval_models, accel_name, model_name):
        model, weights = eval_models[model_name]
        accel = evaluation_accelerators()[accel_name]
        with memo_disabled():
            cold = dataclasses.asdict(accel.run_model(model, weights))
        clear_memo()
        miss = accel.run_model(model, weights)
        hit = accel.run_model(model, weights)
        assert memo_stats()["evaluations"]["hits"] == 1
        assert dataclasses.asdict(miss) == cold
        assert dataclasses.asdict(hit) == cold
        # A fresh instance with the same configuration hits too.
        again = evaluation_accelerators()[accel_name].run_model(model, weights)
        assert memo_stats()["evaluations"]["hits"] == 2
        assert dataclasses.asdict(again) == cold

    def test_every_key_part_misses(self, eval_models):
        model, weights = eval_models["ResNet-50"]
        clear_memo()
        BitVertAccelerator(MODERATE_PRESET).run_model(model, weights)
        # One constructor field, set at construction or afterwards.
        assert_fresh_evaluation(BitVertAccelerator(CONSERVATIVE_PRESET), model, weights)
        assert_fresh_evaluation(
            BitVertAccelerator(MODERATE_PRESET, min_cycles_per_group=3), model, weights
        )
        changed = BitVertAccelerator(MODERATE_PRESET)
        changed.sub_group = 4
        assert_fresh_evaluation(changed, model, weights)
        # The array geometry.
        assert_fresh_evaluation(
            BitVertAccelerator(MODERATE_PRESET, array=ArrayConfig(pe_columns=16)),
            model,
            weights,
        )
        # The design class, with the same attributes.
        assert_fresh_evaluation(PlaneBitVert(MODERATE_PRESET), model, weights)
        # The model spec, with the same weights.
        sparse = dataclasses.replace(model, activation_value_sparsity=0.9)
        assert_fresh_evaluation(SparTenAccelerator(), model, weights)
        assert_fresh_evaluation(SparTenAccelerator(), sparse, weights)
        # The weights: another seed.
        reseeded = synthesize_model(model, seed=1, **EVAL_CAPS)
        assert_fresh_evaluation(BitVertAccelerator(MODERATE_PRESET), model, reseeded)

    def test_warm_hit_does_not_iterate_the_layers(self, eval_models, monkeypatch):
        model, weights = eval_models["ResNet-50"]
        assert isinstance(weights, ModelWeights)
        clear_memo()
        accel = BitVertAccelerator(MODERATE_PRESET)
        expected = dataclasses.asdict(accel.run_model(model, weights))

        def untouchable(*args):
            raise AssertionError("a memo hit read the layer mapping")

        for name in ("__iter__", "__getitem__", "__len__", "__contains__", "keys", "items",
                     "values"):
            monkeypatch.setattr(ModelWeights, name, untouchable)
        hit = accel.run_model(model, weights)
        assert memo_stats()["evaluations"]["hits"] == 1
        assert dataclasses.asdict(hit) == expected

    @pytest.mark.parametrize("derive", ["copy", "replaced"])
    def test_derived_mappings_miss_and_match_memo_off(self, eval_models, derive):
        model, weights = eval_models["ResNet-50"]
        derived = derive_weights(model, weights, derive)
        for accel in (BitVertAccelerator(MODERATE_PRESET), StripesAccelerator()):
            clear_memo()
            accel.run_model(model, weights)
            assert_fresh_evaluation(accel, model, derived)

    def test_mutating_a_result_does_not_poison_the_memo(self, eval_models):
        model, weights = eval_models["ViT-Small"]
        clear_memo()
        accel = BitWaveAccelerator()
        miss = accel.run_model(model, weights)
        expected = dataclasses.asdict(miss)
        miss.layers[0].compute_cycles = -1.0
        miss.layers.pop()
        hit = accel.run_model(model, weights)
        assert dataclasses.asdict(hit) == expected
        hit.layers.clear()
        hit.accelerator = "poisoned"
        assert dataclasses.asdict(accel.run_model(model, weights)) == expected

    @pytest.mark.parametrize(
        "method", COMPRESSION_METHODS + [preset for _, preset in FIGURE16_BITVERT_SWEEP]
    )
    def test_compress_model_hit_matches_memo_off(self, eval_models, method):
        _, weights = eval_models["ResNet-50"]
        with memo_disabled():
            cold = dataclasses.asdict(_compress_model(weights, method))
        clear_memo()
        miss = _compress_model(weights, method)
        hit = _compress_model(weights, method)
        assert memo_stats()["evaluations"]["hits"] == 1
        assert dataclasses.asdict(miss) == cold
        assert dataclasses.asdict(hit) == cold
        hit.mean_kl = -1.0
        assert dataclasses.asdict(_compress_model(weights, method)) == cold

    def test_compress_model_keys_on_method_group_size_and_weights(self, eval_models):
        model, weights = eval_models["ResNet-50"]
        clear_memo()
        _compress_model(weights, "bitwave")
        for method, group_size, layers in [
            ("bitwave2", 32, weights),
            ("bitwave", 16, weights),
            ("bitwave", 32, synthesize_model(model, seed=1, **EVAL_CAPS)),
        ]:
            before = evaluation_misses()
            result = _compress_model(layers, method, group_size)
            assert evaluation_misses() == before + 1
            with memo_disabled():
                assert result == _compress_model(layers, method, group_size)

    @pytest.mark.parametrize("derive", ["copy", "subset", "replaced"])
    def test_compress_model_derived_mappings_miss(self, eval_models, derive):
        model, weights = eval_models["ResNet-50"]
        derived = derive_weights(model, weights, derive)
        for method in ("bbs_mod", "bitwave"):
            clear_memo()
            _compress_model(weights, method)
            result = _compress_model(derived, method)
            assert evaluation_misses() == 2
            with memo_disabled():
                assert result == _compress_model(derived, method)

    def test_memo_off_and_clear_cover_evaluations(self, eval_models):
        model, weights = eval_models["ResNet-50"]
        clear_memo()
        with memo_disabled():
            StripesAccelerator().run_model(model, weights)
        stats = memo_stats()["evaluations"]
        assert stats["hits"] == stats["misses"] == stats["stores"] == 0
        StripesAccelerator().run_model(model, weights)
        assert memo_stats()["evaluations"]["stores"] == 1
        clear_memo()
        assert memo_stats()["evaluations"]["stores"] == 0
        StripesAccelerator().run_model(model, weights)
        assert memo_stats()["evaluations"]["misses"] == 1


class TestSynthesizedWeightsAreFrozen:
    def test_arrays_read_only_and_digest_carried(self, eval_models):
        _, weights = eval_models["ResNet-50"]
        for layer in weights.values():
            for array in (layer.int_weights, layer.channel_scores, layer.float_weights):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
            fresh = stable_digest(
                "LayerWeights", layer.spec, layer.quantized, layer.sample_fraction, layer.repeat
            )
            assert layer.digest == fresh

    def test_digest_covers_every_evaluated_field(self, eval_models):
        _, weights = eval_models["ResNet-50"]
        layer = next(iter(weights.values()))
        values = layer.int_weights.copy()
        values[0, 0] += 1
        variants = [
            dataclasses.replace(layer, repeat=layer.repeat + 1),
            dataclasses.replace(layer, sample_fraction=layer.sample_fraction / 2),
            dataclasses.replace(
                layer, quantized=dataclasses.replace(layer.quantized, values=values)
            ),
            dataclasses.replace(
                layer,
                quantized=dataclasses.replace(
                    layer.quantized, scales=layer.channel_scores * 2
                ),
            ),
            dataclasses.replace(
                layer, spec=dataclasses.replace(layer.spec, name=layer.spec.name + "'")
            ),
        ]
        digests = {variant.digest for variant in variants}
        assert len(digests) == len(variants) and layer.digest not in digests

    def test_mapping_is_read_only_and_carries_its_digest(self, eval_models):
        _, weights = eval_models["ViT-Small"]
        name = next(iter(weights))
        with pytest.raises(TypeError):
            weights[name] = weights[name]
        with pytest.raises(TypeError):
            del weights[name]
        with pytest.raises(AttributeError):
            weights.digest = "0" * 64
        assert weights.digest == stable_digest("ModelWeights", layer_digests(weights))
        assert list(weights) == [layer.name for layer in get_model("ViT-Small").layers]

    def test_get_model_shares_one_spec_per_name(self):
        assert get_model("ResNet-50") is get_model("ResNet-50")
        assert get_model("ResNet-50") is not get_model("ResNet-34")

    def test_memo_hit_model_carries_the_same_digests(self):
        model = get_model("BERT-MRPC")
        clear_memo()
        first = synthesize_model(model, seed=5, **EVAL_CAPS)
        hit = synthesize_model(model, seed=5, **EVAL_CAPS)
        assert memo_stats()["models"]["hits"] == 1
        with memo_disabled():
            cold = synthesize_model(model, seed=5, **EVAL_CAPS)
        assert hit is first and hit.digest == cold.digest
        for name, layer in first.items():
            assert hit[name].digest == layer.digest == cold[name].digest
            assert not hit[name].int_weights.flags.writeable
