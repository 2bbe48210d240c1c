"""Tests for rounded averaging and zero-point shifting (Figures 4/5, Algo. 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitplane import int_range
from repro.core.encoding import PruningStrategy
from repro.core.rounded_average import rounded_average_group, rounded_average_groups
from repro.core.zero_point_shift import zero_point_shift_group, zero_point_shift_groups


def truncation_mse(group: np.ndarray, columns: int) -> float:
    """MSE of naively zeroing the lowest `columns` bits (the dumbest pruning)."""
    block = 1 << columns
    truncated = (group // block) * block
    return float(np.mean((truncated - group) ** 2))


class TestRoundedAverageGroup:
    def test_paper_figure4_example(self):
        # Figure 4: group [-11, 20, -57, 13], target 4 sparse columns.
        group = np.array([-11, 20, -57, 13])
        pruned = rounded_average_group(group, 4)
        assert pruned.num_redundant == 1
        assert pruned.num_sparse == 3
        assert pruned.constant == 5
        assert list(pruned.values) == [-11, 21, -59, 13]

    def test_zero_columns_is_identity(self, fresh_rng):
        group = fresh_rng.integers(-128, 128, 32)
        pruned = rounded_average_group(group, 0)
        assert np.array_equal(pruned.values, group)
        assert pruned.num_pruned == 0

    def test_strategy_label(self, fresh_rng):
        pruned = rounded_average_group(fresh_rng.integers(-10, 10, 16), 2)
        assert pruned.strategy is PruningStrategy.ROUNDED_AVERAGE

    def test_low_bits_become_shared_constant(self, fresh_rng):
        group = fresh_rng.integers(-128, 128, 32)
        pruned = rounded_average_group(group, 3)
        k = pruned.num_sparse
        if k:
            low = np.mod(pruned.values, 1 << k)
            assert np.all(low == low[0])
            assert low[0] == pruned.constant

    def test_values_stay_in_word_range(self, fresh_rng):
        lo, hi = int_range(8)
        for _ in range(20):
            group = fresh_rng.integers(lo, hi + 1, 32)
            pruned = rounded_average_group(group, 4)
            assert pruned.values.min() >= lo
            assert pruned.values.max() <= hi

    def test_small_group_values_use_redundant_columns(self):
        # All values fit in 5 bits -> 3 redundant columns cover a 3-column target
        # with zero error.
        group = np.array([1, -2, 3, 15, -16, 7, 0, -9])
        pruned = rounded_average_group(group, 3)
        assert pruned.num_redundant == 3
        assert pruned.num_sparse == 0
        assert np.array_equal(pruned.values, group)

    def test_rejects_too_many_columns(self, fresh_rng):
        with pytest.raises(ValueError):
            rounded_average_group(fresh_rng.integers(-10, 10, 8), 7)

    def test_rejects_2d_group(self):
        with pytest.raises(ValueError):
            rounded_average_group(np.zeros((2, 4), dtype=np.int64), 2)

    @pytest.mark.parametrize("num_columns", [0, 2])
    @pytest.mark.parametrize(
        "weights, error",
        [
            # Floats used to be truncated silently by the int64 cast.
            (np.array([[1.7, -2.2, 3.9, 0.4]]), TypeError),
            (np.array([[200, 5]], dtype=np.uint8), ValueError),
        ],
    )
    def test_rejects_bad_weights(self, weights, error, num_columns):
        with pytest.raises(error):
            rounded_average_groups(weights, num_columns)
        with pytest.raises(error):
            rounded_average_group(weights[0], num_columns)

    def test_batch_matches_single(self, fresh_rng):
        groups = fresh_rng.integers(-128, 128, (20, 32))
        values, redundant, sparse, constants = rounded_average_groups(groups, 3)
        for i in range(20):
            single = rounded_average_group(groups[i], 3)
            assert np.array_equal(values[i], single.values)
            assert redundant[i] == single.num_redundant
            assert sparse[i] == single.num_sparse
            assert constants[i] == single.constant

    @given(st.lists(st.integers(-128, 127), min_size=4, max_size=32), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_error_bounded_by_block_property(self, values, columns):
        group = np.array(values)
        pruned = rounded_average_group(group, columns)
        k = pruned.num_sparse
        # Per-element error is bounded by the averaged block span.
        assert np.max(np.abs(pruned.values - group)) <= (1 << k) - 1 if k else True
        lo, hi = int_range(8)
        assert pruned.values.min() >= lo and pruned.values.max() <= hi


class TestZeroPointShiftGroup:
    def test_paper_figure5_example_error(self):
        # Figure 5: group [-7, 1, -20, 81], 4 sparse columns.  The optimizer
        # must do at least as well as the constant -14 the paper illustrates.
        group = np.array([-7, 1, -20, 81])
        paper_actual = np.array([-2, -2, -18, 78])
        paper_mse = float(np.mean((paper_actual - group) ** 2))
        pruned = zero_point_shift_group(group, 4)
        our_mse = float(np.mean((pruned.values - group) ** 2))
        assert our_mse <= paper_mse + 1e-9
        assert pruned.num_pruned == 4

    def test_zero_columns_is_identity(self, fresh_rng):
        group = fresh_rng.integers(-128, 128, 32)
        pruned = zero_point_shift_group(group, 0)
        assert np.array_equal(pruned.values, group)

    def test_constant_within_6_bit_range(self, fresh_rng):
        for _ in range(20):
            pruned = zero_point_shift_group(fresh_rng.integers(-128, 128, 32), 4)
            assert -32 <= pruned.constant <= 31

    def test_shifted_values_have_zero_low_columns(self, fresh_rng):
        for _ in range(20):
            pruned = zero_point_shift_group(fresh_rng.integers(-128, 128, 32), 4)
            shifted = pruned.values + pruned.constant
            if pruned.num_sparse:
                assert np.all(np.mod(shifted, 1 << pruned.num_sparse) == 0)

    def test_never_worse_than_truncation(self, fresh_rng):
        for _ in range(30):
            group = fresh_rng.integers(-128, 128, 32)
            pruned = zero_point_shift_group(group, 4)
            our_mse = float(np.mean((pruned.values - group) ** 2))
            assert our_mse <= truncation_mse(group, 4) + 1e-9

    def test_batch_matches_single(self, fresh_rng):
        groups = fresh_rng.integers(-128, 128, (10, 32))
        values, redundant, sparse, constants = zero_point_shift_groups(groups, 4)
        for i in range(10):
            single = zero_point_shift_group(groups[i], 4)
            assert np.array_equal(values[i], single.values)
            assert constants[i] == single.constant

    def test_rejects_bad_columns(self, fresh_rng):
        with pytest.raises(ValueError):
            zero_point_shift_group(fresh_rng.integers(-10, 10, 8), 7)
        with pytest.raises(ValueError):
            zero_point_shift_group(fresh_rng.integers(-10, 10, 8), -1)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            zero_point_shift_groups(np.zeros((2, 2, 4), dtype=np.int64), 2)

    @given(st.lists(st.integers(-128, 127), min_size=4, max_size=32), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_decoded_values_stay_in_word_range_property(self, values, columns):
        group = np.array(values)
        pruned = zero_point_shift_group(group, columns)
        lo, hi = int_range(8)
        assert pruned.values.min() >= lo
        assert pruned.values.max() <= hi

    def test_not_worse_than_rounded_average_at_four_columns_property(self):
        # The paper's rationale for zero-point shifting: at eager pruning
        # budgets it achieves lower error than rounded averaging.  The claim
        # is distributional, not pointwise — adversarial groups exist where
        # rounded averaging wins (e.g. [-1]*6 + [59, -59]) — so compare the
        # mean error over an ensemble of Gaussian weight groups.
        generator = np.random.default_rng(2024)
        zps_errors, ra_errors = [], []
        for _ in range(300):
            group = np.clip(
                np.round(generator.normal(0.0, 24.0, size=32)), -128, 127
            ).astype(np.int64)
            zps = zero_point_shift_group(group, 4)
            ra = rounded_average_group(group, 4)
            zps_errors.append(float(np.mean((zps.values - group) ** 2)))
            ra_errors.append(float(np.mean((ra.values - group) ** 2)))
        assert np.mean(zps_errors) <= np.mean(ra_errors) + 1e-9


class TestStrategyComparison:
    def test_both_strategies_have_zero_error_when_columns_are_redundant(self):
        group = np.array([1, -2, 3, -4, 5, -6, 7, -8])  # fits in 5 bits
        for strategy in (rounded_average_group, zero_point_shift_group):
            pruned = strategy(group, 3)
            assert np.array_equal(pruned.values, group)

    def test_more_columns_never_decrease_error(self, fresh_rng):
        group = fresh_rng.integers(-128, 128, 32)
        previous = -1.0
        for columns in (1, 2, 3, 4, 5, 6):
            pruned = zero_point_shift_group(group, columns)
            error = float(np.mean((pruned.values - group) ** 2))
            assert error >= previous - 1e-9
            previous = error
